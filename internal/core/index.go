package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"flowzip/internal/wire"
)

// An indexed container is the body (sections.go) followed by a footer index,
// so the read path can open an archive through io.ReaderAt and decode only the
// flow groups and templates a query touches. The header's flags byte says the
// footer is there (container version 2, which had no flags byte, always has
// one). Apart from that bit the body is the same bytes with or without it:
//
//	<body: header, short templates, long templates, addresses, time-seq>
//	footer payload:
//	    uvarint index format version (2)
//	    uvarint group size (time-seq records per flow group)
//	    uvarint total time-seq records
//	    uvarint section lengths: header, short, long, addresses, time-seq
//	    uvarint #short templates, then delta-encoded byte offsets of each
//	            template (its length prefix) within the short section
//	    uvarint #long templates, then delta-encoded offsets likewise
//	    uvarint #groups, then per group:
//	        uvarint byte-offset delta within the time-seq section (to the
//	                group's length prefix; in a version 2 container, whose
//	                body has no groups, to its first record)
//	        uvarint record count
//	        uvarint firstUS - previous group's lastUS
//	        uvarint lastUS - firstUS
//	        uvarint new addresses: the group's address symbols 0
//	        (firstUS/lastUS are the accumulated µs timestamps of the group's
//	        first and last records; the previous group's lastUS is the clock
//	        this group's deltas start from, and the new addresses of the
//	        groups before it sum to the next its address symbols start from)
//	    postings, per address in address-dataset order the ascending ids of
//	    the groups holding at least one flow of that address:
//	        uvarint #addresses (at most one per 4 bytes of address section)
//	        uvarint #postings: the lists' total length
//	        three column tables (internal/wire column.go): list length,
//	                first group, group gap
//	        a run of #postings items (padded like a body run): per address
//	                its list length and, for a non-empty list, its first
//	                group as the zigzag difference from the first group of
//	                the last non-empty list before it, then the gap (>= 1) to
//	                each next group
//	trailer (12 bytes, self-locating from EOF):
//	    u32 LE CRC-32 (IEEE) of the footer payload
//	    u32 LE footer payload length
//	    magic "FZIX"
//
// Format 2 is what version 4 to 6 containers carry; its postings are always
// Huffman-coded bits. Containers of versions 2 and 3 carry format 1, which
// still parses: no new-address counts (their address column holds the index
// itself), and uvarint postings — #addresses, then per address the list
// length and the delta-encoded group ids.
//
// What a group's or a template's bytes hold is the body's business
// (sectionCodec). Decode parses the body and never interprets the footer —
// the group lengths it needs are in the time-seq section itself — so only
// OpenReader (and Inspect, through it) reads the index. On the write side the
// section append functions (sections.go) record the offsets as they write
// them.

// DefaultIndexGroupSize is the default number of time-seq records per
// indexed flow group.
const DefaultIndexGroupSize = 256

// IndexConfig controls the flow groups of the time-seq section and the footer
// index over them. The zero value writes default-sized groups and no footer.
type IndexConfig struct {
	// Enabled appends the footer index, which OpenReader needs.
	Enabled bool
	// GroupSize is the number of time-seq records per flow group; 0 means
	// DefaultIndexGroupSize. Smaller groups give finer-grained selective
	// decode at the cost of a larger footer and a length prefix and up to a
	// byte of padding per group in the body.
	GroupSize int
}

func (c IndexConfig) groupSize() int {
	if c.GroupSize <= 0 {
		return DefaultIndexGroupSize
	}
	return c.GroupSize
}

// Validate rejects malformed index configurations.
func (c IndexConfig) Validate() error {
	if c.GroupSize < 0 {
		return fmt.Errorf("core: index group size %d must be >= 0", c.GroupSize)
	}
	return nil
}

var indexMagic = [4]byte{'F', 'Z', 'I', 'X'}

// indexVersion is the footer format a container of containerVersion carries.
const indexVersion = 2

// footerVersion returns the footer format a container of the given version
// carries.
func footerVersion(container byte) uint64 {
	if container < 4 {
		return 1
	}
	return indexVersion
}

// The postings columns of footer format 2, in table order.
const (
	postLen = iota
	postFirst
	postGap
	numPostingCols
)

var postingColumns = [numPostingCols]string{"postings length", "postings first group", "postings group gap"}

// trailerLen is the fixed size of the self-locating footer trailer.
const trailerLen = 12

var (
	// ErrNoIndex reports an archive without a footer index opened through
	// the indexed read path; decode it with Decode instead.
	ErrNoIndex = errors.New("core: archive has no footer index")
	// ErrBadIndex reports a corrupt or inconsistent footer index.
	ErrBadIndex = errors.New("core: corrupt archive index")
)

// groupInfo is one decoded flow-group entry.
type groupInfo struct {
	off      int64  // byte offset within the time-seq section
	count    int    // time-seq records in the group
	startRec int    // global index of the group's first record (derived)
	firstUS  uint64 // accumulated µs timestamp of the first record
	lastUS   uint64 // accumulated µs timestamp of the last record
	newAddrs int    // address symbols 0 in the group (0 in format 1)
	nextAddr int    // the section's new-address counter in front of the group (derived)
}

// baseUS returns the delta-decoding base of group g: the accumulated
// timestamp after the previous group's last record.
func (x *archiveIndex) baseUS(g int) uint64 {
	if g == 0 {
		return 0
	}
	return x.groups[g-1].lastUS
}

// archiveIndex is the decoded footer.
type archiveIndex struct {
	groupSize int
	flows     int
	sections  SectionSizes // Index field unset here; trailer+payload tracked separately
	shortOffs []int64      // template byte offsets within the short section
	longOffs  []int64
	groups    []groupInfo
	postings  [][]uint32 // address id -> sorted ids of groups using it
	// For Inspect: format 2's postings decoders and the bytes their tables
	// took in the payload.
	cols   [numPostingCols]*wire.Decoder
	tables [numPostingCols]int
}

// newArchiveIndex returns the empty index of an archive about to be encoded
// with nRecs time-seq records; the section append functions fill it in as
// they write (appendShortTemplates, appendLongTemplates, appendTimeSeq).
func newArchiveIndex(a *Archive, nRecs int) *archiveIndex {
	gs := a.Index.groupSize()
	return &archiveIndex{
		groupSize: gs,
		flows:     nRecs,
		shortOffs: make([]int64, 0, len(a.ShortTemplates)),
		longOffs:  make([]int64, 0, len(a.LongTemplates)),
		groups:    make([]groupInfo, 0, (nRecs+gs-1)/gs),
		postings:  make([][]uint32, len(a.Addresses)),
	}
}

// addRecord notes time-seq record i, just written at byte offset off of its
// section with the section clock at us, for address id addr — written as the
// new-address symbol when fresh.
func (x *archiveIndex) addRecord(i int, off int64, us uint64, addr uint32, fresh bool) {
	if i%x.groupSize == 0 {
		x.groups = append(x.groups, groupInfo{off: off, startRec: i, firstUS: us})
	}
	id := len(x.groups) - 1
	g := &x.groups[id]
	g.count++
	g.lastUS = us
	if fresh {
		g.newAddrs++
	}
	if p := x.postings[addr]; len(p) == 0 || p[len(p)-1] != uint32(id) {
		x.postings[addr] = append(p, uint32(id))
	}
}

// appendPayload appends the footer payload (everything the trailer's CRC
// covers). The section lengths must already be filled in.
func (x *archiveIndex) appendPayload(dst []byte) []byte {
	return x.appendPostings(x.appendHead(dst, indexVersion))
}

// appendHead appends the part of a footer payload of the given format that
// comes before the postings.
func (x *archiveIndex) appendHead(dst []byte, version uint64) []byte {
	dst = binary.AppendUvarint(dst, version)
	dst = binary.AppendUvarint(dst, uint64(x.groupSize))
	dst = binary.AppendUvarint(dst, uint64(x.flows))
	for _, v := range [...]int64{
		x.sections.Header, x.sections.ShortTemplates, x.sections.LongTemplates,
		x.sections.Addresses, x.sections.TimeSeq,
	} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	for _, offs := range [...][]int64{x.shortOffs, x.longOffs} {
		dst = binary.AppendUvarint(dst, uint64(len(offs)))
		prev := int64(0)
		for _, o := range offs {
			dst = binary.AppendUvarint(dst, uint64(o-prev))
			prev = o
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(x.groups)))
	prevOff, prevLastUS := int64(0), uint64(0)
	for _, g := range x.groups {
		dst = binary.AppendUvarint(dst, uint64(g.off-prevOff))
		dst = binary.AppendUvarint(dst, uint64(g.count))
		dst = binary.AppendUvarint(dst, g.firstUS-prevLastUS)
		dst = binary.AppendUvarint(dst, g.lastUS-g.firstUS)
		if version >= 2 {
			dst = binary.AppendUvarint(dst, uint64(g.newAddrs))
		}
		prevOff, prevLastUS = g.off, g.lastUS
	}
	return dst
}

// forEachPosting walks the postings columns in the order format 2 writes
// them: per address its list length and, for a non-empty list, the zigzag
// difference of its first group from the previous non-empty list's, then the
// gaps to each next group.
func forEachPosting(postings [][]uint32, visit func(col int, v uint64)) {
	prev := int64(0)
	for _, p := range postings {
		visit(postLen, uint64(len(p)))
		if len(p) == 0 {
			continue
		}
		d := int64(p[0]) - prev
		visit(postFirst, uint64(d<<1^d>>63))
		prev = int64(p[0])
		for j := 1; j < len(p); j++ {
			visit(postGap, uint64(p[j]-p[j-1]))
		}
	}
}

// appendPostings appends format 2's postings: the two counts, the three
// column tables and the run.
func (x *archiveIndex) appendPostings(dst []byte) []byte {
	var h [numPostingCols]wire.Histogram
	forEachPosting(x.postings, func(col int, v uint64) { h[col].Add(v) })
	total := 0
	for _, p := range x.postings {
		total += len(p)
	}
	dst = binary.AppendUvarint(dst, uint64(len(x.postings)))
	dst = binary.AppendUvarint(dst, uint64(total))
	var enc [numPostingCols]*wire.Encoder
	for i := range enc {
		enc[i] = h[i].Encoder(false)
		dst = enc[i].AppendTable(dst)
	}
	w := wire.NewRunWriter(false)
	w.Start(dst)
	forEachPosting(x.postings, func(col int, v uint64) { enc[col].Put(&w, v) })
	return w.EndRun(total)
}

// appendTrailer appends the 12-byte self-locating trailer for payload.
func appendTrailer(payload []byte) []byte {
	n := uint32(len(payload))
	payload = binary.LittleEndian.AppendUint32(payload, crc32.ChecksumIEEE(payload))
	payload = binary.LittleEndian.AppendUint32(payload, n)
	return append(payload, indexMagic[:]...)
}

// maxIndexUS bounds the µs timestamps of the footer to what a time.Duration
// holds.
const maxIndexUS = uint64(math.MaxInt64 / time.Microsecond)

// parseArchiveIndex decodes and validates the footer payload of a container
// of the given version. size is the total container size; the section lengths
// plus magic, payload and trailer must tile it exactly.
func parseArchiveIndex(payload []byte, size int64, container byte) (*archiveIndex, error) {
	c := wire.NewCursor(payload, ErrBadIndex)
	ver, err := c.Uvarint("index version")
	if err != nil {
		return nil, err
	}
	if ver != footerVersion(container) {
		return nil, c.Errorf("index version %d in a version %d container", ver, container)
	}
	x := &archiveIndex{}
	gs, err := c.UvarintMax("group size", maxCount)
	if err != nil {
		return nil, err
	}
	if gs < 1 {
		return nil, c.Errorf("group size %d", gs)
	}
	x.groupSize = int(gs)
	flows, err := c.UvarintMax("flow count", maxCount)
	if err != nil {
		return nil, err
	}
	x.flows = int(flows)
	for _, dst := range []*int64{
		&x.sections.Header, &x.sections.ShortTemplates, &x.sections.LongTemplates,
		&x.sections.Addresses, &x.sections.TimeSeq,
	} {
		v, err := c.UvarintMax("section length", uint64(size))
		if err != nil {
			return nil, err
		}
		*dst = int64(v)
	}
	// The header section size includes the 5 magic/version bytes, so the
	// sections plus footer must tile the container exactly.
	if got := x.sections.Header + x.sections.ShortTemplates +
		x.sections.LongTemplates + x.sections.Addresses + x.sections.TimeSeq +
		int64(len(payload)) + trailerLen; got != size {
		return nil, c.Errorf("sections sum to %d bytes, container has %d", got, size)
	}
	if x.sections.Header < int64(len(magic))+1 {
		return nil, c.Errorf("header section of %d bytes", x.sections.Header)
	}

	offsets := func(what string, sectionLen int64) ([]int64, error) {
		n, err := c.Count(what+" count", maxCount, 1)
		if err != nil {
			return nil, err
		}
		offs := make([]int64, n)
		prev := uint64(0)
		for i := range offs {
			d, err := c.UvarintMax(what, uint64(sectionLen))
			if err != nil {
				return nil, err
			}
			if prev += d; prev >= uint64(sectionLen) {
				return nil, c.Errorf("%s %d outside %d-byte section", what, prev, sectionLen)
			}
			offs[i] = int64(prev)
		}
		return offs, nil
	}
	if x.shortOffs, err = offsets("short template offset", x.sections.ShortTemplates); err != nil {
		return nil, err
	}
	if x.longOffs, err = offsets("long template offset", x.sections.LongTemplates); err != nil {
		return nil, err
	}

	nGroups, err := c.Count("group count", maxCount, 4)
	if err != nil {
		return nil, err
	}
	x.groups = make([]groupInfo, nGroups)
	prevOff, prevLastUS, rec, next := uint64(0), uint64(0), 0, 0
	for i := range x.groups {
		g := &x.groups[i]
		d, err := c.UvarintMax("group offset", uint64(x.sections.TimeSeq))
		if err != nil {
			return nil, err
		}
		if prevOff += d; prevOff >= uint64(x.sections.TimeSeq) {
			return nil, c.Errorf("group %d offset %d outside %d-byte time-seq section", i, prevOff, x.sections.TimeSeq)
		}
		g.off = int64(prevOff)
		count, err := c.UvarintMax("group record count", uint64(x.flows))
		if err != nil {
			return nil, err
		}
		if count < 1 {
			return nil, c.Errorf("empty group %d", i)
		}
		g.count = int(count)
		first, err := c.UvarintMax("group first timestamp", maxIndexUS)
		if err != nil {
			return nil, err
		}
		span, err := c.UvarintMax("group timestamp span", maxIndexUS)
		if err != nil {
			return nil, err
		}
		g.firstUS = prevLastUS + first
		g.lastUS = g.firstUS + span
		if g.lastUS > maxIndexUS {
			return nil, c.Errorf("group %d ends at %d µs, beyond a duration", i, g.lastUS)
		}
		if ver >= 2 {
			n, err := c.UvarintMax("group new addresses", count)
			if err != nil {
				return nil, err
			}
			g.newAddrs = int(n)
		}
		g.startRec, g.nextAddr = rec, next
		rec += g.count
		next += g.newAddrs
		prevLastUS = g.lastUS
	}
	if rec != x.flows {
		return nil, c.Errorf("groups cover %d records, index claims %d", rec, x.flows)
	}

	if ver == 1 {
		x.postings, err = parsePostingsV1(&c, nGroups)
	} else {
		err = x.parsePostings(&c, nGroups)
	}
	if err != nil {
		return nil, err
	}
	if next > len(x.postings) {
		return nil, c.Errorf("groups introduce %d new addresses of %d", next, len(x.postings))
	}
	if err := c.Done("footer index"); err != nil {
		return nil, err
	}
	return x, nil
}

// parsePostings decodes format 2's postings. Every list costs a slice header
// whatever its length, so the address count is bounded by the address
// section, which holds four bytes an address; the group ids are bounded by
// the run that holds them.
func (x *archiveIndex) parsePostings(c *wire.Cursor, nGroups int) error {
	nAddrs, err := c.UvarintMax("address count", uint64(x.sections.Addresses/4))
	if err != nil {
		return err
	}
	total, err := c.UvarintMax("postings count", maxCount)
	if err != nil {
		return err
	}
	most := [numPostingCols]uint64{uint64(nGroups), 2 * uint64(nGroups), uint64(nGroups)}
	for i := range x.cols {
		before := c.Len()
		if x.cols[i], err = c.ReadDecoder(postingColumns[i], most[i]); err != nil {
			return err
		}
		if x.cols[i].RANS() {
			return c.Errorf("%s: an rANS table in the footer", postingColumns[i])
		}
		x.tables[i] = before - c.Len()
	}
	r, err := c.Run("postings count", int(total), false)
	if err != nil {
		return err
	}
	lengths, firsts, gaps := x.cols[postLen], x.cols[postFirst], x.cols[postGap]
	if nAddrs > 0 && lengths.Empty() || total > 0 && firsts.Empty() {
		return c.Errorf("postings, but a postings column's table is empty")
	}
	x.postings = make([][]uint32, nAddrs)
	left, first := int(total), int64(0)
	for i := range x.postings {
		n := int(lengths.Next(&r))
		if n > left {
			return c.Errorf("address %d postings run past the %d the index claims", i, total)
		}
		if n == 0 {
			continue
		}
		if n > 1 && gaps.Empty() {
			return c.Errorf("%s: the column's table is empty", postingColumns[postGap])
		}
		left -= n
		z := firsts.Next(&r)
		g := first + (int64(z>>1) ^ -int64(z&1))
		if g < 0 || g >= int64(nGroups) {
			return c.Errorf("address %d postings start at group %d of %d", i, g, nGroups)
		}
		first = g
		p := make([]uint32, n)
		p[0] = uint32(g)
		for j := 1; j < n; j++ {
			gap := gaps.Next(&r)
			if gap == 0 {
				return c.Errorf("address %d postings not strictly increasing", i)
			}
			if g += int64(gap); g >= int64(nGroups) {
				return c.Errorf("address %d references group %d of %d", i, g, nGroups)
			}
			p[j] = uint32(g)
		}
		x.postings[i] = p
	}
	if left != 0 {
		return c.Errorf("postings hold %d group ids, index claims %d", int(total)-left, total)
	}
	return c.EndRun("postings", &r, int(total))
}

// parsePostingsV1 decodes format 1's uvarint postings.
func parsePostingsV1(c *wire.Cursor, nGroups int) ([][]uint32, error) {
	nAddrs, err := c.Count("address count", maxCount, 1)
	if err != nil {
		return nil, err
	}
	postings := make([][]uint32, nAddrs)
	for i := range postings {
		n, err := c.Count("postings length", uint64(nGroups), 1)
		if err != nil {
			return nil, err
		}
		p := make([]uint32, n)
		prev := uint64(0)
		for j := range p {
			d, err := c.UvarintMax("postings group id", uint64(nGroups))
			if err != nil {
				return nil, err
			}
			if j > 0 && d == 0 {
				return nil, c.Errorf("address %d postings not strictly increasing", i)
			}
			if prev += d; prev >= uint64(nGroups) {
				return nil, c.Errorf("address %d references group %d of %d", i, prev, nGroups)
			}
			p[j] = uint32(prev)
		}
		postings[i] = p
	}
	return postings, nil
}
