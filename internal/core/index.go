package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
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
//	    uvarint index format version (4)
//	    uvarint group size (time-seq records per flow group)
//	    uvarint total time-seq records (at most wire.MaxItemsPerByte per
//	            byte of time-seq section)
//	    uvarint section lengths: header, short, long, addresses, time-seq
//	    uvarint #short templates, then delta-encoded byte offsets of each
//	            template (its length prefix) within the short section
//	    uvarint #long templates, then delta-encoded offsets likewise
//	    uvarint #groups (the records over the group size, rounded up: every
//	            group but the last holds the group size), then per group:
//	        uvarint byte-offset delta within the time-seq section (to the
//	                group's length prefix; in a version 2 container, whose
//	                body has no groups, to its first record)
//	        uvarint firstUS - previous group's lastUS
//	        uvarint lastUS - firstUS
//	        uvarint new addresses: the group's address symbols 0
//	        with header flag bit 1 (the new-template symbols), two more:
//	        uvarint new short templates: the group's tags 0
//	        uvarint new long templates: the group's tags 1
//	        (firstUS/lastUS are the accumulated µs timestamps of the group's
//	        first and last records; the previous group's lastUS is the clock
//	        this group's deltas start from, and the new addresses — and new
//	        templates of a kind — of the groups before it sum to the counter
//	        its symbols start from)
//	    postings, per address in address-dataset order the ascending ids of
//	    the groups holding at least one flow of that address:
//	        uvarint #addresses (at most one per 4 bytes of address section)
//	        uvarint #postings: the lists' total length (at most the total
//	                time-seq records: a posting is a distinct address and
//	                group, so a record of its own)
//	        byte prediction of each list's first group: 0 or 1 (below)
//	        three column tables (internal/wire column.go): list length,
//	                first group, group gap
//	        a run of #postings items, not padded: per address its list
//	                length and, for a non-empty list, its first group as the
//	                zigzag difference from its prediction, then the gap
//	                (>= 1) to each next group
//	trailer (12 bytes, self-locating from EOF):
//	    u32 LE CRC-32 (IEEE) of the footer payload
//	    u32 LE footer payload length
//	    magic "FZIX"
//
// Prediction 0 is the first group of the last non-empty list before it.
// Prediction 1 is, for an address a time-seq new-address symbol introduces,
// the group holding that symbol, and prediction 0's for any other address. The
// group entries give that group before the postings are read: group g
// introduces as many addresses as its entry's count says, after those the
// groups before it introduce. Its list must hold it, and a parser refuses one
// that does not. The encoder counts the postings both ways, in one walk, and
// writes the way that takes fewer bytes, 0 on a tie. Prediction 1 wins where
// the address dataset is numbered in the order the time-seq first names each
// address, as on a SYN sweep: every list then starts at its prediction and
// the first-group column costs nothing. Prediction 0 wins where Compress,
// which numbers an address when a flow to it completes (compress.go), numbers
// them in another order, as on a Web mix.
//
// Format 4 is what Encode writes, behind every version 6 container; its
// postings are always Huffman-coded bits. A version 2 container carries
// format 1, which still parses: a record count in every group entry, after
// its offset, no new-address counts (its address column holds the index
// itself), and uvarint postings — #addresses, then per address the list
// length and the delta-encoded group ids. A footer of any other format is
// refused.
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

// indexVersion is the footer format Encode writes.
const indexVersion = 4

// The postings columns of footer format 4, in table order.
const (
	postLen = iota
	postFirst
	postGap
	numPostingCols
)

var postingColumns = [numPostingCols]string{"postings length", "postings first group", "postings group gap"}

// postingLimits is the largest value each postings column holds in a footer
// of n groups: a list holds each group at most once, so its length and a gap
// are at most n, and a first group's zigzag difference is under 2n.
func postingLimits(n int) [numPostingCols]uint64 {
	return [...]uint64{uint64(n), 2 * uint64(n), uint64(n)}
}

// The predictions of a list's first group a footer names.
const (
	// predPrevious is the first group of the last non-empty list before it.
	predPrevious byte = iota
	// predFresh is the group whose new-address symbol introduces the address,
	// where one does, and predPrevious's otherwise.
	predFresh
)

// predictions names each prediction, for Inspect.
var predictions = [...]string{"previous list's", "fresh group"}

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
	count    int    // time-seq records in the group (derived in format 4)
	startRec int    // global index of the group's first record (derived)
	firstUS  uint64 // accumulated µs timestamp of the first record
	lastUS   uint64 // accumulated µs timestamp of the last record
	// fresh counts the group's new symbols, by kind (newAddr, newShort,
	// newLong): 0 where the footer has no count of them — addresses in format
	// 1, templates without flag bit 1.
	fresh [numNew]int
	next  [numNew]int // the section's counters in front of the group (derived)
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
	// newTemplates: the container has flag bit 1, and the group entries count
	// new templates.
	newTemplates bool
	// For Inspect: the postings' prediction, the postings decoders of format
	// 4 (nil in format 1) and the bytes their tables took in the payload.
	pred   byte
	cols   [numPostingCols]*wire.Decoder
	tables [numPostingCols]int
}

// newArchiveIndex returns the empty index of an archive about to be encoded
// with nRecs time-seq records, with the new-template symbols or without; the
// section append functions fill it in as they write (appendShortTemplates,
// appendLongTemplates, appendTimeSeq).
func newArchiveIndex(a *Archive, nRecs int, newTemplates bool) *archiveIndex {
	gs := a.Index.groupSize()
	return &archiveIndex{
		groupSize:    gs,
		flows:        nRecs,
		shortOffs:    make([]int64, 0, len(a.ShortTemplates)),
		longOffs:     make([]int64, 0, len(a.LongTemplates)),
		groups:       make([]groupInfo, 0, (nRecs+gs-1)/gs),
		postings:     make([][]uint32, len(a.Addresses)),
		newTemplates: newTemplates,
	}
}

// addRecord notes time-seq record i, just written at byte offset off of its
// section with the section clock at us, for address id addr. The group's new
// symbols are the writer's to count (appendTimeSeq).
func (x *archiveIndex) addRecord(i int, off int64, us uint64, addr uint32) {
	if i%x.groupSize == 0 {
		x.groups = append(x.groups, groupInfo{off: off, startRec: i, firstUS: us})
	}
	id := len(x.groups) - 1
	g := &x.groups[id]
	g.count++
	g.lastUS = us
	if p := x.postings[addr]; len(p) == 0 || p[len(p)-1] != uint32(id) {
		x.postings[addr] = append(p, uint32(id))
	}
}

// appendPayload appends the footer payload (everything the trailer's CRC
// covers) in format 4, under whichever prediction takes fewer bytes,
// predPrevious on a tie. The section lengths must already be filled in.
func (x *archiveIndex) appendPayload(dst []byte) []byte {
	dst = x.appendHead(dst, indexVersion)
	enc := x.postingCoders()
	// The tables are whole bytes and the run is rounded up to one, so each
	// way takes its bits rounded up to a byte.
	size := func(pred byte) uint64 {
		cost := uint64(0)
		for _, e := range enc[pred] {
			cost += e.Cost()
		}
		return (cost + 8<<16 - 1) / (8 << 16)
	}
	pred := predPrevious
	if size(predFresh) < size(predPrevious) {
		pred = predFresh
	}
	return x.appendPostings(dst, pred, &enc[pred])
}

// appendHead appends the part of a footer payload of format 1 or 4 that comes
// before the postings; a format 4 group entry counts new templates where
// x.newTemplates says so.
func (x *archiveIndex) appendHead(dst []byte, format uint64) []byte {
	legacy := format == 1
	dst = binary.AppendUvarint(dst, format)
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
		if legacy {
			dst = binary.AppendUvarint(dst, uint64(g.count))
		}
		dst = binary.AppendUvarint(dst, g.firstUS-prevLastUS)
		dst = binary.AppendUvarint(dst, g.lastUS-g.firstUS)
		if !legacy {
			dst = binary.AppendUvarint(dst, uint64(g.fresh[newAddr]))
		}
		if !legacy && x.newTemplates {
			dst = binary.AppendUvarint(dst, uint64(g.fresh[newShort]))
			dst = binary.AppendUvarint(dst, uint64(g.fresh[newLong]))
		}
		prevOff, prevLastUS = g.off, g.lastUS
	}
	return dst
}

// freshGroups finds, for address ids in ascending order, the group whose
// time-seq new-address symbol introduces each.
type freshGroups struct {
	groups []groupInfo
	g      int // the group at hand
	before int // the addresses the groups before it introduce
}

// of returns the group that introduces address i, or -1 where none does. i
// must not be below the one before.
func (f *freshGroups) of(i int) int {
	for f.g < len(f.groups) && f.before+f.groups[f.g].fresh[newAddr] <= i {
		f.before += f.groups[f.g].fresh[newAddr]
		f.g++
	}
	if f.g == len(f.groups) {
		return -1
	}
	return f.g
}

// forEachPosting walks the postings columns in the order format 4 writes
// them: per address its list length and, for a non-empty list, the
// zigzag difference of its first group from its prediction, then the gap to
// each next group. It gives each value under both predictions, the same but
// for a first group.
func (x *archiveIndex) forEachPosting(visit func(col int, previous, fresh uint64)) {
	zigzag := func(d int64) uint64 { return uint64(d<<1 ^ d>>63) }
	groups := freshGroups{groups: x.groups}
	prev := int64(0)
	for i, p := range x.postings {
		visit(postLen, uint64(len(p)), uint64(len(p)))
		if len(p) == 0 {
			continue
		}
		first, fresh := int64(p[0]), prev
		if f := groups.of(i); f >= 0 {
			fresh = int64(f)
		}
		visit(postFirst, zigzag(first-prev), zigzag(first-fresh))
		prev = first
		for j := 1; j < len(p); j++ {
			gap := uint64(p[j] - p[j-1])
			visit(postGap, gap, gap)
		}
	}
}

// postingCoders counts the postings under both predictions, in one walk, and
// builds the columns' tables under each — the length and gap tables are the
// same under both.
func (x *archiveIndex) postingCoders() *[len(predictions)][numPostingCols]*wire.Encoder {
	var h [numPostingCols]wire.Histogram
	var fresh wire.Histogram // the first groups under predFresh
	x.forEachPosting(func(col int, previous, f uint64) {
		h[col].Add(previous)
		if col == postFirst {
			fresh.Add(f)
		}
	})
	enc := new([len(predictions)][numPostingCols]*wire.Encoder)
	for col := range h {
		enc[predPrevious][col] = h[col].Encoder(false)
	}
	enc[predFresh] = enc[predPrevious]
	enc[predFresh][postFirst] = fresh.Encoder(false)
	return enc
}

// appendPostings appends the postings of format 4 under prediction pred with
// the tables enc: the two counts, the prediction byte, the tables and the
// run, unpadded.
func (x *archiveIndex) appendPostings(dst []byte, pred byte, enc *[numPostingCols]*wire.Encoder) []byte {
	total := 0
	for _, p := range x.postings {
		total += len(p)
	}
	dst = binary.AppendUvarint(dst, uint64(len(x.postings)))
	dst = binary.AppendUvarint(dst, uint64(total))
	dst = append(dst, pred)
	for _, e := range enc {
		dst = e.AppendTable(dst)
	}
	w := wire.NewRunWriter(false)
	w.Start(dst)
	x.forEachPosting(func(col int, previous, fresh uint64) {
		if pred == predFresh {
			previous = fresh
		}
		enc[col].Put(&w, previous)
	})
	return w.EndRun(0)
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
// of version 2 or 6, whose time-seq has the new-template symbols or not.
// size is the total container size; the section lengths plus magic, payload
// and trailer must tile it exactly.
func parseArchiveIndex(payload []byte, size int64, container byte, newTemplates bool) (*archiveIndex, error) {
	c := wire.NewCursor(payload, ErrBadIndex)
	ver, err := c.Uvarint("index version")
	if err != nil {
		return nil, err
	}
	// A version 2 container carries format 1, a version 6 one format 4.
	legacy, want := container == 2, uint64(indexVersion)
	if legacy {
		want = 1
	}
	if ver != want {
		return nil, c.Errorf("index version %d in a version %d container", ver, container)
	}
	x := &archiveIndex{newTemplates: newTemplates}
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
	// Format 4 bounds its postings and its group count by the flow count, so
	// the flow count is bounded by the body: every group run of a version 6
	// time-seq section is padded to a byte per wire.MaxItemsPerByte records.
	if !legacy && int64(x.flows) > wire.MaxItemsPerByte*x.sections.TimeSeq {
		return nil, c.Errorf("%d flows in a %d-byte time-seq section", x.flows, x.sections.TimeSeq)
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
	if want := (x.flows + x.groupSize - 1) / x.groupSize; !legacy && nGroups != want {
		return nil, c.Errorf("%d groups of %d for %d flows", nGroups, x.groupSize, x.flows)
	}
	x.groups = make([]groupInfo, nGroups)
	prevOff, prevLastUS, rec := uint64(0), uint64(0), 0
	var next [numNew]int
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
		count := uint64(min(x.groupSize, x.flows-rec))
		if legacy {
			if count, err = c.UvarintMax("group record count", uint64(x.flows)); err != nil {
				return nil, err
			}
			if count < 1 {
				return nil, c.Errorf("empty group %d", i)
			}
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
		// A record is at most one new address and at most one new template.
		fresh := func(k int, most uint64) error {
			n, err := c.UvarintMax("group new "+newNames[k], most)
			g.fresh[k] = int(n)
			return err
		}
		if !legacy {
			if err := fresh(newAddr, count); err != nil {
				return nil, err
			}
		}
		if newTemplates {
			if err := fresh(newShort, count); err != nil {
				return nil, err
			}
			if err := fresh(newLong, count-uint64(g.fresh[newShort])); err != nil {
				return nil, err
			}
		}
		g.startRec, g.next = rec, next
		rec += g.count
		for k, n := range g.fresh {
			next[k] += n
		}
		prevLastUS = g.lastUS
	}
	if rec != x.flows {
		return nil, c.Errorf("groups cover %d records, index claims %d", rec, x.flows)
	}
	if next[newShort] > len(x.shortOffs) || next[newLong] > len(x.longOffs) {
		return nil, c.Errorf("groups introduce %d short and %d long templates of %d and %d",
			next[newShort], next[newLong], len(x.shortOffs), len(x.longOffs))
	}

	if legacy {
		x.postings, err = parsePostingsV1(&c, nGroups)
	} else {
		err = x.parsePostings(&c, next[newAddr])
	}
	if err != nil {
		return nil, err
	}
	if err := c.Done("footer index"); err != nil {
		return nil, err
	}
	return x, nil
}

// parsePostings decodes the postings of format 4, the groups having
// introduced next new addresses. Every list costs a slice header whatever its
// length, so the address count is bounded by the address section, which holds
// four bytes an address. The group ids are bounded by the flow count.
func (x *archiveIndex) parsePostings(c *wire.Cursor, next int) error {
	nGroups := len(x.groups)
	nAddrs, err := c.UvarintMax("address count", uint64(x.sections.Addresses/4))
	if err != nil {
		return err
	}
	if next > int(nAddrs) {
		return c.Errorf("groups introduce %d new addresses of %d", next, nAddrs)
	}
	total, err := c.UvarintMax("postings count", uint64(x.flows))
	if err != nil {
		return err
	}
	b, err := c.Bytes("postings prediction", 1)
	if err != nil {
		return err
	}
	if x.pred = b[0]; x.pred > predFresh {
		return c.Errorf("postings prediction %d", x.pred)
	}
	most := postingLimits(nGroups)
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
	r, err := c.Run("postings count", 0, false) // the run is not padded
	if err != nil {
		return err
	}
	lengths, firsts, gaps := x.cols[postLen], x.cols[postFirst], x.cols[postGap]
	if nAddrs > 0 && lengths.Empty() || total > 0 && firsts.Empty() {
		return c.Errorf("postings, but a postings column's table is empty")
	}
	x.postings = make([][]uint32, nAddrs)
	fresh := freshGroups{groups: x.groups}
	left, first := int(total), int64(0)
	for i := range x.postings {
		f := fresh.of(i)
		n := int(lengths.Next(&r))
		if n > left {
			return c.Errorf("address %d postings run past the %d the index claims", i, total)
		}
		if n == 0 {
			if f >= 0 {
				return c.Errorf("address %d has no postings, but group %d introduces it", i, f)
			}
			continue
		}
		if n > 1 && gaps.Empty() {
			return c.Errorf("%s: the column's table is empty", postingColumns[postGap])
		}
		left -= n
		if x.pred == predFresh && f >= 0 {
			first = int64(f)
		}
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
		if _, ok := slices.BinarySearch(p, uint32(f)); f >= 0 && !ok {
			return c.Errorf("address %d postings miss group %d, which introduces it", i, f)
		}
		x.postings[i] = p
	}
	if left != 0 {
		return c.Errorf("postings hold %d group ids, index claims %d", int(total)-left, total)
	}
	return c.EndRun("postings", &r, 0)
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
