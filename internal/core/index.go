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
// footer is there. Apart from that bit the body is the same bytes with or
// without it:
//
//	<body: header, short templates, long templates, addresses, time-seq>
//	footer payload:
//	    uvarint index format version (6)
//	    uvarint group size (time-seq records per flow group, and short
//	            templates per short template group)
//	    uvarint total time-seq records (at most wire.MaxItemsPerByte per
//	            byte of time-seq section); the groups are the records over
//	            the group size, rounded up — every group but the last holds
//	            the group size — at most one per byte of time-seq section
//	    uvarint section lengths: header, short, long, addresses, time-seq
//	    uvarint #short templates (at most wire.MaxItemsPerByte/2 per byte of
//	            short section: a template is two items at least); the short
//	            template groups are the templates over the group size,
//	            rounded up
//	    uvarint #long templates (at most one per byte of long section)
//	    uvarint #addresses (at most one per 4 bytes of address section)
//	    uvarint #postings: the lists' total length, below (at most the total
//	            time-seq records: a posting is a distinct address and group,
//	            so a record of its own)
//	    byte prediction of each list's first group: 0 or 1 (below)
//	    a column table (internal/wire column.go) for each column below, in
//	            the order footerColumns names them; the two new-template
//	            columns only with header flag bit 1
//	    one run, not padded, of every value of the footer, each under its
//	    column's table:
//	        per short template group, then per long template, its byte
//	                offset (to its length prefix) within its section less
//	                the one before (from 0), >= 1
//	        per group:
//	            its byte offset within the time-seq section (to its length
//	                    prefix) less the one before (from 0), >= 1
//	            firstUS - previous group's lastUS
//	            lastUS - firstUS
//	            new addresses: the group's address symbols 0
//	            with header flag bit 1 (the new-template symbols), two more:
//	            new short templates: the group's tags 0
//	            new long templates: the group's tags 1
//	            (firstUS/lastUS are the accumulated µs timestamps of the
//	            group's first and last records; the previous group's lastUS
//	            is the clock this group's deltas start from, and the new
//	            addresses — and new templates of a kind — of the groups before
//	            it sum to the counter its symbols start from)
//	        postings, per address in address-dataset order the ascending ids
//	        of the groups holding at least one flow of that address: its
//	                list length and, for a non-empty list, its first group as
//	                the zigzag difference from its prediction, then the gap
//	                (>= 1) to each next group
//	trailer (12 bytes, self-locating from EOF):
//	    u32 LE CRC-32 (IEEE) of the footer payload
//	    u32 LE footer payload length
//	    magic "FZIX"
//
// A coded value can take no bits, so no count above is bounded by the footer
// bytes that hold its values: each is bounded by the body section it indexes,
// which also holds the offsets to strictly increasing values inside it.
//
// Prediction 0 is the first group of the last non-empty list before it.
// Prediction 1 is, for an address a time-seq new-address symbol introduces,
// the group holding that symbol, and prediction 0's for any other address. The
// group entries give that group before the postings are read: group g
// introduces as many addresses as its entry's count says, after those the
// groups before it introduce. Its list must hold it, and a parser refuses one
// that does not. The encoder counts the footer both ways, in one walk, and
// writes the way that takes fewer bytes, 0 on a tie. Prediction 1 wins where
// the address dataset is numbered in the order the time-seq first names each
// address, as on a SYN sweep: every list then starts at its prediction and
// the first-group column costs nothing. Prediction 0 wins where Compress,
// which numbers an address when a flow to it completes (compress.go), numbers
// them in another order, as on a Web mix.
//
// Format 6 is what Encode writes, behind every version 9 container; its
// tables are all Huffman-shaped, its run bits. A footer of any other format
// is refused.
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

// IndexConfig controls the groups of the body — the flow groups of the
// time-seq section and the groups of the short-template section — and the
// footer index over them. The zero value writes default-sized groups and no
// footer.
type IndexConfig struct {
	// Enabled appends the footer index, which OpenReader needs.
	Enabled bool
	// GroupSize is the number of time-seq records per flow group and of
	// short templates per short template group; 0 means
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
const indexVersion = 6

// The columns of footer format 6, in table order; the two new-template ones
// only under flagNewTemplates. The three new-symbol columns are in newAddr,
// newShort, newLong order.
const (
	footShortOff = iota
	footLongOff
	footGroupOff
	footGroupFirst
	footGroupSpan
	footNewAddr
	footNewShort
	footNewLong
	postLen
	postFirst
	postGap
	numFooterCols
)

var footerColumns = [numFooterCols]string{
	"short template group offset", "long template offset", "group offset", "group first timestamp",
	"group timestamp span", "group new addresses", "group new short templates", "group new long templates",
	"postings length", "postings first group", "postings group gap",
}

// has reports whether the footer has column col: all but the new-template
// ones, and those where the container has the new-template symbols.
func (x *archiveIndex) has(col int) bool {
	return col != footNewShort && col != footNewLong || x.newTemplates
}

// limits is the largest value each footer column holds in a footer of n
// groups: an offset delta is within its section, a group's new symbols are at
// most its group size, a list holds each group at most once, so its length
// and a gap are at most n, and a first group's zigzag difference is under 2n.
func (x *archiveIndex) limits(n int) [numFooterCols]uint64 {
	s, gs := x.sections, uint64(x.groupSize)
	return [...]uint64{uint64(s.ShortTemplates), uint64(s.LongTemplates), uint64(s.TimeSeq), maxIndexUS, maxIndexUS,
		gs, gs, gs, uint64(n), 2 * uint64(n), uint64(n)}
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
	count    int    // time-seq records in the group (derived)
	startRec int    // global index of the group's first record (derived)
	firstUS  uint64 // accumulated µs timestamp of the first record
	lastUS   uint64 // accumulated µs timestamp of the last record
	// fresh counts the group's new symbols, by kind (newAddr, newShort,
	// newLong): 0 where the footer has no count of them, templates without
	// flag bit 1.
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
	// shorts is the short template count, and shortOffs the byte offset
	// within the short section of each group of groupSize of them.
	shorts    int
	shortOffs []int64
	longOffs  []int64 // long template byte offsets within the long section
	groups    []groupInfo
	postings  [][]uint32 // address id -> sorted ids of groups using it
	// newTemplates: the container has flag bit 1, and the group entries count
	// new templates.
	newTemplates bool
	// For Inspect: the postings' prediction, the column decoders (the
	// new-template ones nil without them) and the bytes their tables took in
	// the payload.
	pred   byte
	cols   [numFooterCols]*wire.Decoder
	tables [numFooterCols]int
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
		shorts:       len(a.ShortTemplates),
		shortOffs:    make([]int64, 0, (len(a.ShortTemplates)+gs-1)/gs),
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
// covers) in format 6, under whichever prediction takes fewer bytes,
// predPrevious on a tie. The section lengths must already be filled in.
func (x *archiveIndex) appendPayload(dst []byte) []byte {
	pred, enc := x.footerCoders()
	return x.appendFooter(dst, pred, enc)
}

// appendFooter appends the format 6 payload under prediction pred with the
// tables enc: the head, the tables and the run.
func (x *archiveIndex) appendFooter(dst []byte, pred byte, enc *[numFooterCols]*wire.Encoder) []byte {
	total := 0
	for _, p := range x.postings {
		total += len(p)
	}
	dst = x.appendHead(dst, len(x.postings), total, pred)
	for _, e := range enc {
		if e != nil {
			dst = e.AppendTable(dst)
		}
	}
	w := wire.NewRunWriter(false)
	w.Start(dst)
	x.forEachValue(func(col int, previous, fresh uint64) {
		if pred == predFresh {
			previous = fresh
		}
		enc[col].Put(&w, previous)
	})
	return w.EndRun(0)
}

// appendHead appends what a format 6 payload holds in front of its tables:
// the format, group size, record count and section lengths, the counts of
// templates of each kind, of addresses and of postings, and the prediction
// byte.
func (x *archiveIndex) appendHead(dst []byte, addrs, postings int, pred byte) []byte {
	s := x.sections
	for _, v := range [...]uint64{
		indexVersion, uint64(x.groupSize), uint64(x.flows),
		uint64(s.Header), uint64(s.ShortTemplates), uint64(s.LongTemplates), uint64(s.Addresses), uint64(s.TimeSeq),
		uint64(x.shorts), uint64(len(x.longOffs)), uint64(addrs), uint64(postings),
	} {
		dst = binary.AppendUvarint(dst, v)
	}
	return append(dst, pred)
}

// footerCoders counts the footer under both predictions, in one walk, builds
// every column's table — the same under both, but for the first-group
// column's — and returns the prediction whose tables and codes take fewer
// bytes, predPrevious on a tie, with its tables. The tables are whole bytes
// and the run is rounded up to one, so each way takes its bits rounded up to
// a byte.
func (x *archiveIndex) footerCoders() (byte, *[numFooterCols]*wire.Encoder) {
	var h [numFooterCols]wire.Histogram
	var fresh wire.Histogram // the first groups under predFresh
	x.forEachValue(func(col int, previous, f uint64) {
		h[col].Add(previous)
		if col == postFirst {
			fresh.Add(f)
		}
	})
	enc := new([numFooterCols]*wire.Encoder)
	cost := uint64(0)
	for col := range h {
		if x.has(col) {
			enc[col] = h[col].Encoder(false)
			cost += enc[col].Cost()
		}
	}
	bytes := func(cost uint64) uint64 { return (cost + 8<<16 - 1) / (8 << 16) }
	if f := fresh.Encoder(false); bytes(cost-enc[postFirst].Cost()+f.Cost()) < bytes(cost) {
		enc[postFirst] = f
		return predFresh, enc
	}
	return predPrevious, enc
}

// forEachValue walks the footer's values in the order format 6 writes them:
// the template offsets, the group entries, then per address its list length
// and, for a non-empty list, the zigzag difference of its first group from
// its prediction, then the gap to each next group. It gives each value under
// both predictions, the same but for a first group.
func (x *archiveIndex) forEachValue(visit func(col int, previous, fresh uint64)) {
	same := func(col int, v uint64) { visit(col, v, v) }
	for col, offs := range [...][]int64{footShortOff: x.shortOffs, footLongOff: x.longOffs} {
		prev := int64(0)
		for _, o := range offs {
			same(col, uint64(o-prev))
			prev = o
		}
	}
	prevOff, prevLastUS := int64(0), uint64(0)
	for i := range x.groups {
		g := &x.groups[i]
		same(footGroupOff, uint64(g.off-prevOff))
		same(footGroupFirst, g.firstUS-prevLastUS)
		same(footGroupSpan, g.lastUS-g.firstUS)
		for k, n := range g.fresh {
			if x.has(footNewAddr + k) {
				same(footNewAddr+k, uint64(n))
			}
		}
		prevOff, prevLastUS = g.off, g.lastUS
	}
	groups := freshGroups{groups: x.groups}
	prev := int64(0)
	for i, p := range x.postings {
		same(postLen, uint64(len(p)))
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
			same(postGap, uint64(p[j]-p[j-1]))
		}
	}
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
// whose time-seq has the new-template symbols or not. size is the total
// container size; the section lengths plus magic, payload and trailer must
// tile it exactly.
func parseArchiveIndex(payload []byte, size int64, newTemplates bool) (*archiveIndex, error) {
	c := wire.NewCursor(payload, ErrBadIndex)
	ver, err := c.Uvarint("index version")
	if err != nil {
		return nil, err
	}
	if ver != indexVersion {
		return nil, c.Errorf("index version %d in a version %d container (this build reads version %d (footer format %d); commit dac74bb is the last to read format 5, commit %s the last to read format 1)",
			ver, containerVersion, containerVersion, indexVersion, lastPaperEra)
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
	if err := x.parseV6(&footerReader{c: &c}); err != nil {
		return nil, err
	}
	if err := c.Done("footer index"); err != nil {
		return nil, err
	}
	return x, nil
}

// footerReader reads a footer's values from its run, each under its column's
// table.
type footerReader struct {
	c    *wire.Cursor
	cols *[numFooterCols]*wire.Decoder
	r    wire.RunReader
}

// next reads a value of column col, which must be at most most. A value read
// past the run's end is a zero, which the run's end refuses (Cursor.EndRun).
func (f *footerReader) next(col int, most uint64) (uint64, error) {
	d := f.cols[col]
	if d.Empty() {
		return 0, f.c.Errorf("%s: a value, but the column's table is empty", footerColumns[col])
	}
	v := d.Next(&f.r)
	if v > most {
		return 0, f.c.Errorf("%s %d exceeds %d", footerColumns[col], v, most)
	}
	return v, nil
}

// offsets reads the offsets of n templates, or template groups, in a section
// of sectionLen bytes, each as its delta from the one before (from 0): they
// must strictly increase and stay inside the section.
func (f *footerReader) offsets(col, n int, sectionLen int64) ([]int64, error) {
	offs := make([]int64, n)
	prev := uint64(0)
	for i := range offs {
		d, err := f.next(col, uint64(sectionLen))
		if err != nil {
			return nil, err
		}
		if d == 0 {
			return nil, f.c.Errorf("%s %d not past the one before", footerColumns[col], i)
		}
		if prev += d; prev >= uint64(sectionLen) {
			return nil, f.c.Errorf("%s %d outside %d-byte section", footerColumns[col], prev, sectionLen)
		}
		offs[i] = int64(prev)
	}
	return offs, nil
}

// sectionCount reads the count of what indexes a body section of sectionLen
// bytes: at most one a byte, what the section can hold however few bits the
// footer spends on each.
func sectionCount(c *wire.Cursor, what string, sectionLen int64) (int, error) {
	n, err := c.UvarintMax(what, uint64(sectionLen))
	return int(n), err
}

// parseV6 decodes what follows the section lengths in format 6.
func (x *archiveIndex) parseV6(f *footerReader) error {
	c := f.c
	// Every group run of a time-seq section is padded to a byte per
	// wire.MaxItemsPerByte records, and holds at least one; the postings and
	// the groups are bounded by the records.
	if int64(x.flows) > wire.MaxItemsPerByte*x.sections.TimeSeq {
		return c.Errorf("%d flows in a %d-byte time-seq section", x.flows, x.sections.TimeSeq)
	}
	nGroups := (x.flows + x.groupSize - 1) / x.groupSize
	if int64(nGroups) > x.sections.TimeSeq {
		return c.Errorf("%d groups in a %d-byte time-seq section", nGroups, x.sections.TimeSeq)
	}
	// A short template is two items at least, its length and a value.
	nShort, err := c.UvarintMax("short template count", uint64(wire.MaxItemsPerByte/2*x.sections.ShortTemplates))
	if err != nil {
		return err
	}
	x.shorts = int(nShort)
	nLong, err := sectionCount(c, "long template count", x.sections.LongTemplates)
	if err != nil {
		return err
	}
	nAddrs, err := sectionCount(c, "address count", x.sections.Addresses/4) // four bytes an address
	if err != nil {
		return err
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
	most := x.limits(nGroups)
	for i := range x.cols {
		if !x.has(i) {
			continue
		}
		before := c.Len()
		if x.cols[i], err = c.ReadDecoder(footerColumns[i], most[i]); err != nil {
			return err
		}
		if x.cols[i].RANS() {
			return c.Errorf("%s: an rANS table in the footer", footerColumns[i])
		}
		x.tables[i] = before - c.Len()
	}
	f.cols = &x.cols
	if f.r, err = c.Run("footer", 0, false); err != nil { // the run is not padded
		return err
	}
	if x.shortOffs, err = f.offsets(footShortOff, (x.shorts+x.groupSize-1)/x.groupSize, x.sections.ShortTemplates); err != nil {
		return err
	}
	if x.longOffs, err = f.offsets(footLongOff, nLong, x.sections.LongTemplates); err != nil {
		return err
	}
	if err := x.parseGroups(f, nGroups); err != nil {
		return err
	}
	if err := x.parsePostings(f, nAddrs, int(total)); err != nil {
		return err
	}
	return c.EndRun("footer", &f.r, 0)
}

// parseGroups decodes n group entries. A group holds the group size, the last
// what is left.
func (x *archiveIndex) parseGroups(f *footerReader, n int) error {
	c := f.c
	x.groups = make([]groupInfo, n)
	prevOff, prevLastUS, rec := uint64(0), uint64(0), 0
	var next [numNew]int
	for i := range x.groups {
		g := &x.groups[i]
		d, err := f.next(footGroupOff, uint64(x.sections.TimeSeq))
		if err != nil {
			return err
		}
		if d == 0 {
			return c.Errorf("group %d offset not past the one before", i)
		}
		if prevOff += d; prevOff >= uint64(x.sections.TimeSeq) {
			return c.Errorf("group %d offset %d outside %d-byte time-seq section", i, prevOff, x.sections.TimeSeq)
		}
		g.off = int64(prevOff)
		count := uint64(min(x.groupSize, x.flows-rec))
		g.count = int(count)
		first, err := f.next(footGroupFirst, maxIndexUS)
		if err != nil {
			return err
		}
		span, err := f.next(footGroupSpan, maxIndexUS)
		if err != nil {
			return err
		}
		g.firstUS = prevLastUS + first
		g.lastUS = g.firstUS + span
		if g.lastUS > maxIndexUS {
			return c.Errorf("group %d ends at %d µs, beyond a duration", i, g.lastUS)
		}
		// A record is at most one new address and at most one new template.
		for k := range g.fresh {
			if !x.has(footNewAddr + k) {
				continue
			}
			most := count
			if k == newLong {
				most -= uint64(g.fresh[newShort])
			}
			v, err := f.next(footNewAddr+k, most)
			if err != nil {
				return err
			}
			g.fresh[k] = int(v)
		}
		g.startRec, g.next = rec, next
		rec += g.count
		for k, n := range g.fresh {
			next[k] += n
		}
		prevLastUS = g.lastUS
	}
	if next[newShort] > x.shorts || next[newLong] > len(x.longOffs) {
		return c.Errorf("groups introduce %d short and %d long templates of %d and %d",
			next[newShort], next[newLong], x.shorts, len(x.longOffs))
	}
	return nil
}

// parsePostings decodes the postings: nAddrs lists holding total
// group ids. Every list costs a slice header whatever its length, so the
// address count is bounded by the address section, which holds four bytes an
// address; the group ids are bounded by the flow count.
func (x *archiveIndex) parsePostings(f *footerReader, nAddrs, total int) error {
	c, nGroups := f.c, len(x.groups)
	if nGroups > 0 {
		last := &x.groups[nGroups-1]
		if next := last.next[newAddr] + last.fresh[newAddr]; next > nAddrs {
			return c.Errorf("groups introduce %d new addresses of %d", next, nAddrs)
		}
	}
	x.postings = make([][]uint32, nAddrs)
	fresh := freshGroups{groups: x.groups}
	left, first := total, int64(0)
	for i := range x.postings {
		intro := fresh.of(i)
		n, err := f.next(postLen, uint64(nGroups))
		if err != nil {
			return err
		}
		if int(n) > left {
			return c.Errorf("address %d postings run past the %d the index claims", i, total)
		}
		if n == 0 {
			if intro >= 0 {
				return c.Errorf("address %d has no postings, but group %d introduces it", i, intro)
			}
			continue
		}
		left -= int(n)
		if x.pred == predFresh && intro >= 0 {
			first = int64(intro)
		}
		z, err := f.next(postFirst, 2*uint64(nGroups))
		if err != nil {
			return err
		}
		g := first + unzigzag(z)
		if g < 0 || g >= int64(nGroups) {
			return c.Errorf("address %d postings start at group %d of %d", i, g, nGroups)
		}
		first = g
		p := make([]uint32, n)
		p[0] = uint32(g)
		for j := 1; j < len(p); j++ {
			gap, err := f.next(postGap, uint64(nGroups))
			if err != nil {
				return err
			}
			if gap == 0 {
				return c.Errorf("address %d postings not strictly increasing", i)
			}
			if g += int64(gap); g >= int64(nGroups) {
				return c.Errorf("address %d references group %d of %d", i, g, nGroups)
			}
			p[j] = uint32(g)
		}
		if _, ok := slices.BinarySearch(p, uint32(intro)); intro >= 0 && !ok {
			return c.Errorf("address %d postings miss group %d, which introduces it", i, intro)
		}
		x.postings[i] = p
	}
	if left != 0 {
		return c.Errorf("postings hold %d group ids, index claims %d", total-left, total)
	}
	return nil
}
