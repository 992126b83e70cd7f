package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/wire"
)

// This file is the one owner of the .fz body layout. Each section has one
// append function and one decode function; Encode and SaveDatasets write
// through the former, Decode, LoadDatasets and Reader read through the
// latter, so the container, the four-dataset directory and the indexed read
// path cannot drift apart. What is written is container version 6: every
// value of the template and time-seq sections belongs to one of seven columns
// and is written by that column's coder (internal/wire column.go: canonical
// Huffman or rANS frequencies, over the values or over their bit lengths with
// the low bits raw, whichever is smallest). The tables are per archive and
// live in the header. The three template columns are coded under a context,
// with a table for every context that holds values: an f value under the f
// before it in its template (context 0 for the first, p+1 after a p), a long
// template's gap i under F[i+1], the class of the packet the gap leads to. A
// TCP transfer's packets alternate data and acks with a fixed cadence, and an
// ack's gap is a round trip where a data segment's is a serialisation time;
// one table per column cannot see that, one per context can.
//
// The f values of a template may go through an rANS state instead, where a
// context is so skewed that Huffman's bit a value is most of what they spend
// (a long transfer's, whose next packet is all but certain). An f column whose
// tables include an rANS-shaped one has every template's f values coded
// through one state, Huffman-shaped tables' too: a short template is then an
// rANS run, a long template an rANS run whose rANS part holds the f values
// and whose gaps follow as bits. An encoder gives an f column rANS tables
// only where that makes its section, its tables and each template's
// RANSFlush bytes included, strictly smaller. The gaps and the time-seq
// columns are always Huffman-coded bits: µs values gain little from fractions
// of a bit, and decoding them through a state was a third slower than through
// codes.
//
//	header:    magic "FZT1", version byte 6, flags byte (bit 0: a footer
//	           index follows the body; bit 1: the tag column has the
//	           new-template symbols)
//	           uvarint w1, w2, w3, shortMax, round(limitPct*100)
//	           uvarint sourcePackets, sourceTSHBytes
//	           three context tables (wire column.go): short f (257
//	           contexts), long f (257), long gap µs (256)
//	           four column tables: time-seq µs delta, tag, rtt µs, address
//	           symbol
//	short:     uvarint #templates, then per template, on a byte boundary:
//	           uvarint n, a run of n short-f codes, each under the one before
//	long:      uvarint #templates, then per template, on a byte boundary:
//	           uvarint n (>= 1), a run of n long-f codes, each under the one
//	           before (an rANS part when the column is rANS-coded), then n-1
//	           gap codes, gap i under F[i+1]
//	addresses: uvarint #addresses, then 4 bytes each (big endian)
//	time-seq:  uvarint #records, uvarint group size (>= 1), then per group of
//	           that many records (the last may be shorter; sorted by FirstTS):
//	           uvarint byte length of the run, a run of one record after
//	           another:
//	               µs delta from the previous record's timestamp
//	               tag: template symbol<<1 | long, the template symbol the
//	               template index t itself or, with flag bit 1, 0 for the
//	               next new template of the record's kind and t+1 for any
//	               other
//	               rtt µs (short flows only)
//	               address symbol: 0 for address next, any other address
//	               index a as a+1
//
// The time-seq section keeps running values from one record to the next
// (timeSeqState): the clock (the previous record's timestamp) and next, the
// count of address symbols 0 so far. Symbol 0 means "address next, then
// next++" and is written whenever a record's address index equals next, so an
// address dataset numbered in the order the time-seq first names each address
// pays for a new server once, in the dataset, and the time-seq's address
// column costs nothing beyond repeats. Compress numbers an address when the
// first flow to it completes (compress.go), which is that order where
// flows complete in the order they start, as on a SYN sweep, and not where
// they overlap: on the bench's Web mix 4 of 500 addresses come in that order.
// Any other numbering still round-trips; an address the symbol does not reach
// pays a+1.
//
// Templates get the same symbol, one counter per kind, where the header's flag
// bit 1 says so. Compress numbers the templates of each kind in the order the
// sorted time-seq first names them (Archive.numberTemplatesByFirstUse), so
// every first reference is the symbol 0 of its kind: on a trace where nearly
// every flow founds a template, the tag column falls from the bits of an
// index to about one a record. Where few templates take many references, as
// on a SYN sweep's one, that symbol is one more value in a column that had
// one, so the encoder sets the flag only where it makes the column and the
// footer counts it adds smaller (columnEncoders).
//
// A run is padded with zero bits to a byte and with zero bytes to one byte
// per wire.MaxItemsPerByte items (a template's values, a group's records), so
// a count is always bounded by the bytes that hold it even when every code is
// zero bits long. Every template and every group therefore starts on a byte
// boundary and decodes from the header's tables and, for a group, its clock
// and new-symbol counters (which the footer index carries), which is what lets
// a Reader fetch only what a query touches. A template's contexts are its own
// values, so a template decodes alone too.
//
// The decoders read one other layout, the paper's: versions 1 and 2, no
// longer written, are the same sections with every value a byte-aligned
// uvarint, f values raw, the address column the address index itself, no
// flags byte, no tables, no groups; version 2 is version 1 with a footer
// index. sectionCodec.tpl and cols are nil for them, and each decode function
// branches on that. Versions 3 to 5 are refused (unsupportedVersion).
//
// Decoders read through a wire.Cursor, so every count and length is checked
// against the bytes that remain before anything is sized from it, and errors
// wrap the sentinel of whoever made the cursor (ErrBadArchive for Decode and
// LoadDatasets, ErrBadIndex for Reader). Template vectors of a version 1 or 2
// archive alias the cursor's buffer.

var magic = [4]byte{'F', 'Z', 'T', '1'}

const (
	containerVersion = 6
	// flagIndexed in the header's flags byte says a footer index follows the
	// body.
	flagIndexed = 1
	// flagNewTemplates says the time-seq tag column has the new-template
	// symbols.
	flagNewTemplates = 2
)

// unsupportedVersion refuses a container version the decoders do not read.
// They read the paper's layout, versions 1 and 2, and containerVersion; a
// format change deletes the version it replaces (ARCHITECTURE.md, Formats).
func unsupportedVersion(v byte) error {
	return fmt.Errorf("%w: unsupported version %d (this build reads versions 1, 2 and %d; commit 8514c3f is the last to read versions 3 to 5)",
		ErrBadArchive, v, containerVersion)
}

// maxCount is the sanity bound on any count parsed from an archive or
// footer index — far above any real trace, far below what would let a
// corrupt stream demand gigabytes.
const maxCount = 1 << 28

// maxDecodeAmplification is the most any decoder allocates per input byte.
// Items of a version 6 run are packed at most wire.MaxItemsPerByte to the
// byte, a count is refused unless its run can hold it (wire.Cursor.Run), and
// the largest thing decoded per item is a 32-byte TimeSeqRecord (a long
// template spends 9 bytes per value and an address 4 per 4). The footer's run
// is not padded, so each of its counts is bounded by the body section it
// indexes instead: a template offset, with the Reader's empty template and
// its loaded flag, takes at most 57 bytes per byte of template section, a
// group entry, with the Reader's slot for its records, 112 per byte of
// time-seq section, an address list 24 per 4 bytes of address section, and a
// posting 4, at most one per flow, so 4 per record of the time-seq section.
// What is not proportional to the input is the lookup tables — a table of
// 12-bit codes is a dozen bytes and asks for 8 KiB — so their sum is bounded
// by construction instead: lookupBudget, the tables of a header and a footer
// together.
const maxDecodeAmplification = wire.MaxItemsPerByte * 32

// lookupBudget is the most lookup bytes a container's tables ask for: each of
// the three template columns' context tables together at most
// wire.MaxContextLookup, which a decoder refuses to exceed and an encoder
// keeps within — twice that for the f columns, whose direct tables are laid
// out in their chain instead (wire.ContextDecoder.Build: the same entries,
// four bytes wide, as an rANS table's lookup is); each of the four time-seq
// and eleven footer tables, all Huffman tables, at most 2<<wire.MaxCodeLen.
const lookupBudget = (numContextCols+2)*wire.MaxContextLookup + (numColumns-numContextCols+numFooterCols)*(2<<wire.MaxCodeLen)

// The columns, in header order. The first numContextCols, the template
// columns, are coded under a context.
const (
	colShortF = iota
	colLongF
	colGap
	colDelta
	colTag
	colRTT
	colAddr
	numColumns

	numContextCols = colGap + 1
)

// columns names each column, the largest value its destination holds (the
// address symbol's is one more than an address index's) and, for a template
// column, its number of contexts: an f value's is the f before it in its
// template (wire.ChainContexts), a gap's the f it leads to.
var columns = [numColumns]struct {
	what     string
	max      uint64
	contexts int
}{
	{"short template value", math.MaxUint8, wire.ChainContexts}, {"long template value", math.MaxUint8, wire.ChainContexts},
	{"long template gap", maxIndexUS, math.MaxUint8 + 1},
	{"time-seq timestamp delta", maxIndexUS, 0}, {"time-seq template tag", math.MaxUint32<<1 | 1, 0},
	{"time-seq rtt", maxIndexUS, 0}, {"time-seq address", math.MaxUint32 + 1, 0},
}

// The "next new" symbols of the time-seq section, in the order a footer group
// entry counts them: the address symbol 0 and, under flagNewTemplates, the
// tags 0 and 1, which name the next new short and long template.
const (
	newAddr = iota
	newShort
	newLong
	numNew
)

// newNames names what each new symbol introduces.
var newNames = [numNew]string{"addresses", "short templates", "long templates"}

// timeSeqState is what the time-seq section carries from one record to the
// next: its clock, the previous record's timestamp in whole µs, and how many
// of each new symbol it has written. Which new symbols a section has is fixed
// for the section: the address one in version 6 (addrs; versions 1 and 2
// write the index itself), the template ones under flagNewTemplates
// (templates).
type timeSeqState struct {
	clockUS          int64
	next             [numNew]uint32
	addrs, templates bool
}

// fields returns the four values record r is written as and moves s past it.
// Timestamps never step backwards on the wire, and a long flow has no rtt
// column. An index the section has a new symbol for is written as 0 where it
// equals that symbol's count so far, which then advances, and as index+1
// anywhere else; an index without one is written as it is. The tag is the
// template's index so written, under the counter of its kind, <<1 | long.
func (s *timeSeqState) fields(r *TimeSeqRecord) (delta, tag, rtt, addr uint64) {
	d := max(int64(r.FirstTS/time.Microsecond)-s.clockUS, 0)
	s.clockUS += d
	kind := newShort
	if r.Long {
		kind = newLong
	} else {
		rtt = uint64(r.RTT / time.Microsecond)
	}
	return uint64(d), s.symbol(r.Template, kind, s.templates)<<1 | uint64(kind-newShort), rtt, s.symbol(r.Addr, newAddr, s.addrs)
}

// symbol writes index i under new symbol k, when the section has it (on).
func (s *timeSeqState) symbol(i uint32, k int, on bool) uint64 {
	switch {
	case !on:
		return uint64(i)
	case i == s.next[k]:
		s.next[k]++
		return 0
	}
	return uint64(i) + 1
}

// fromSymbol is the index the new-symbol value v stands for: *next for 0,
// which then advances, v-1 for any other.
func fromSymbol(v uint64, next *uint32) uint64 {
	if v == 0 {
		*next++
		return uint64(*next - 1)
	}
	return v - 1
}

// coders is what the coded sections are written with: every column's tables
// — the template columns' per context, the time-seq columns' one each (enc's
// template entries stay nil) — whether each f column's values go through an
// rANS state, whether the tag column has the new-template symbols, and the two
// template sections, in ransColumns order, as columnEncoders wrote them.
type coders struct {
	tpl          [numContextCols]*wire.ContextEncoder
	enc          [numColumns]*wire.Encoder
	rans         [numContextCols]bool
	newTemplates bool
	templates    [len(ransColumns)]templateSection
}

// templateSection is a template section as written: its bytes and the offset
// of each template in them.
type templateSection struct {
	b    []byte
	offs []int64
}

// ransColumns are the columns whose values may go through an rANS state.
var ransColumns = [...]int{colShortF, colLongF}

// columnEncoders is the first of the encoder's two passes over the archive,
// recs being its sorted time-seq records: count every column, then build its
// tables and pick how each f column and the tag column are coded. Every table
// is the cheaper Huffman shape, and the tag the template index itself, unless
// one of two choices makes the archive strictly smaller:
//
//   - an f column takes an rANS table when each of its tables is the cheapest
//     of all four shapes and its section is smaller that way: then it gets
//     those tables, and its values go through an rANS state. The template
//     sections are written here, into buf, both ways where both are
//     candidates — the rANS form kept only when it is strictly smaller, tables
//     and flushes included;
//   - the tag column takes the new-template symbols when its table and codes
//     with them, plus the two counts they add to every footer group entry, are
//     smaller than its table and codes without them. The footer is counted
//     whether or not one follows, so that the body is the same bytes either
//     way, and each count at its uvarint length, what footer format 4 spent
//     on it: format 5 codes the counts, but pricing them so would move the
//     flag, and with it the body, on archives whose bytes are pinned.
//
// (forEachValue in inspect.go is the same walk for any visitor; the loops are
// spelled out here because this one runs on every Encode.)
func (a *Archive) columnEncoders(recs []TimeSeqRecord, buf *encodeBuffers) *coders {
	var th [numContextCols]*wire.ContextHistogram
	for i := range th {
		th[i] = wire.NewContextHistogram(columns[i].contexts)
	}
	for _, t := range a.ShortTemplates {
		th[colShortF].AddChain(t)
	}
	for i := range a.LongTemplates {
		t := &a.LongTemplates[i]
		th[colLongF].AddChain(t.F)
		for j, g := range t.Gaps {
			th[colGap].Add(int(t.F[j+1]), uint64(g/time.Microsecond))
		}
	}
	var h [numColumns]wire.Histogram
	var plain wire.Histogram // the tags without the new-template symbols
	footer := 0              // the bytes the symbols' counts add to the footer
	s, gs := timeSeqState{addrs: true, templates: true}, a.Index.groupSize()
	for i := 0; i < len(recs); i += gs {
		before := s.next
		for j := range recs[i:min(i+gs, len(recs))] {
			r := &recs[i+j]
			delta, tag, rtt, addr := s.fields(r)
			h[colDelta].Add(delta)
			h[colTag].Add(tag)
			if tag&1 == 0 {
				h[colRTT].Add(rtt)
			}
			h[colAddr].Add(addr)
			plain.Add(uint64(r.Template)<<1 | tag&1)
		}
		footer += uvarintLen(s.next[newShort]-before[newShort]) + uvarintLen(s.next[newLong]-before[newLong])
	}
	c := new(coders)
	for i := range th {
		c.tpl[i] = th[i].Encoder(false)
	}
	for i := numContextCols; i < numColumns; i++ {
		c.enc[i] = h[i].Encoder(false)
	}
	if p := plain.Encoder(false); c.enc[colTag].Cost()+uint64(8*footer)<<16 < p.Cost() {
		c.newTemplates = true
	} else {
		c.enc[colTag] = p
	}
	for i, col := range ransColumns {
		c.write(a, i, &buf.forms[i][0])
		r := *c
		r.tpl[col] = th[col].Encoder(true)
		if r.rans[col] = r.tpl[col].RANS(); r.rans[col] && r.write(a, i, &buf.forms[i][1]) < c.size(i) {
			c = &r
		}
	}
	return c
}

// uvarintLen is the length of v as a uvarint.
func uvarintLen(v uint32) int { return (bits.Len32(v|1) + 6) / 7 }

// write writes template section i (of ransColumns[i]) with c into buf and
// returns its size with the column's tables.
func (c *coders) write(a *Archive, i int, buf *[]byte) int {
	var x archiveIndex
	if ransColumns[i] == colShortF {
		*buf, c.templates[i].offs = appendShortTemplates((*buf)[:0], a.ShortTemplates, c, &x), x.shortOffs
	} else {
		*buf, c.templates[i].offs = appendLongTemplates((*buf)[:0], a.LongTemplates, c, &x), x.longOffs
	}
	c.templates[i].b = *buf
	return c.size(i)
}

// size is what template section i and its column's tables take.
func (c *coders) size(i int) int {
	return len(c.templates[i].b) + len(c.tpl[ransColumns[i]].AppendTables(nil))
}

// appendHeaderFields appends what the header starts with: magic, version,
// flags and the header's uvarints.
func appendHeaderFields(dst []byte, a *Archive, flags byte) []byte {
	dst = append(dst, magic[:]...)
	dst = append(dst, containerVersion, flags)
	for _, v := range [...]uint64{
		uint64(a.Opts.Weights.Flag), uint64(a.Opts.Weights.Dep), uint64(a.Opts.Weights.Size),
		uint64(a.Opts.ShortMax), uint64(math.Round(a.Opts.LimitPct * 100)),
		uint64(a.SourcePackets), uint64(a.SourceTSHBytes),
	} {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

func appendHeader(dst []byte, a *Archive, flags byte, c *coders) []byte {
	dst = appendHeaderFields(dst, a, flags)
	for _, e := range c.tpl {
		dst = e.AppendTables(dst)
	}
	for _, e := range c.enc[numContextCols:] {
		dst = e.AppendTable(dst)
	}
	return dst
}

// headerFields names the header's uvarints and the largest value each
// destination field holds.
var headerFields = [7]struct {
	what string
	max  uint64
}{
	{"flag weight", math.MaxInt32}, {"dependence weight", math.MaxInt32}, {"size weight", math.MaxInt32},
	{"short-flow maximum", math.MaxInt32}, {"distance limit", math.MaxUint64},
	{"source packet count", math.MaxInt64}, {"source byte count", math.MaxInt64},
}

// sectionCodec decodes the body sections of one container: which version
// wrote them, and in version 6 the column decoders read from its header.
type sectionCodec struct {
	version      byte
	indexed      bool // a footer index follows the body
	newTemplates bool // the tag column has the new-template symbols
	// The template columns by context and the time-seq columns (the template
	// entries stay nil). Both nil for versions 1 and 2.
	tpl  *[numContextCols]*wire.ContextDecoder
	cols *[numColumns]*wire.Decoder
	// Whether each f column's values go through an rANS state: where one of
	// its tables is rANS-shaped.
	rans [numContextCols]bool
	// For Inspect: the bytes each column's tables took in the header, and the
	// bytes decodeSections consumed per section.
	tables [numColumns]int
	sizes  SectionSizes
}

// decodeHeader fills a.Opts and the source counters and returns the codec of
// the sections that follow. A tampered header can carry parameters no encoder
// produces — zero weights would divide by zero inside Weights.Decompose
// during decompression — so the options gate runs here, not just on Compress.
func decodeHeader(c *wire.Cursor, a *Archive) (*sectionCodec, error) {
	m, err := c.Bytes("magic and version", len(magic)+1)
	if err != nil {
		return nil, err
	}
	if [4]byte(m) != magic {
		return nil, ErrBadArchive
	}
	sc := &sectionCodec{version: m[4], indexed: m[4] == 2}
	switch sc.version {
	case 1, 2:
	case containerVersion:
		flags, err := c.Bytes("flags", 1)
		if err != nil {
			return nil, err
		}
		if flags[0]&^(flagIndexed|flagNewTemplates) != 0 {
			return nil, c.Errorf("unknown flags %#x", flags[0])
		}
		sc.indexed = flags[0]&flagIndexed != 0
		sc.newTemplates = flags[0]&flagNewTemplates != 0
	default:
		return nil, unsupportedVersion(sc.version)
	}
	var hdr [len(headerFields)]uint64
	for i, f := range headerFields {
		if hdr[i], err = c.UvarintMax(f.what, f.max); err != nil {
			return nil, err
		}
	}
	a.Opts = DefaultOptions()
	a.Opts.Weights = flow.Weights{Flag: int(hdr[0]), Dep: int(hdr[1]), Size: int(hdr[2])}
	a.Opts.ShortMax = int(hdr[3])
	a.Opts.LimitPct = float64(hdr[4]) / 100
	a.SourcePackets = int64(hdr[5])
	a.SourceTSHBytes = int64(hdr[6])
	if err := a.Opts.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadArchive, err)
	}
	if sc.version == containerVersion {
		sc.tpl, sc.cols = new([numContextCols]*wire.ContextDecoder), new([numColumns]*wire.Decoder)
		for i, col := range columns {
			before := c.Len()
			if i < numContextCols {
				sc.tpl[i], err = c.ReadContexts(col.what, col.contexts, col.max)
			} else {
				sc.cols[i], err = c.ReadDecoder(col.what, col.max)
			}
			if err != nil {
				return nil, err
			}
			sc.tables[i] = before - c.Len()
			if i < numContextCols && sc.tpl[i].RANS() || i >= numContextCols && sc.cols[i].RANS() {
				if !slices.Contains(ransColumns[:], i) {
					return nil, c.Errorf("%s: an rANS table, which only an f column takes", col.what)
				}
				sc.rans[i] = true
			}
		}
		for i, tpl := range sc.tpl {
			tpl.Build(sc.rans[i])
		}
	}
	return sc, nil
}

// noTable reports a template value whose context has no table.
func noTable(c *wire.Cursor, col int) error {
	return c.Errorf("%s: a value's context has no table", columns[col].what)
}

// appendShortTemplates appends the short-flows-template section. With idx
// non-nil it records each template's offset from the start of the section.
func appendShortTemplates(dst []byte, tpls []flow.Vector, c *coders, idx *archiveIndex) []byte {
	base := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(tpls)))
	w, f := wire.NewRunWriter(c.rans[colShortF]), c.tpl[colShortF]
	for _, t := range tpls {
		if idx != nil {
			idx.shortOffs = append(idx.shortOffs, int64(len(dst)-base))
		}
		w.Start(binary.AppendUvarint(dst, uint64(len(t))))
		f.PutChain(&w, t)
		dst = w.EndRun(len(t))
	}
	return dst
}

// shortTemplate decodes one short template.
func (sc *sectionCodec) shortTemplate(c *wire.Cursor) (flow.Vector, error) {
	n, err := c.UvarintMax("template length", maxCount)
	if err != nil {
		return nil, err
	}
	if sc.tpl == nil {
		return c.Bytes("template", int(n))
	}
	r, err := c.Run(columns[colShortF].what, int(n), sc.rans[colShortF])
	if err != nil {
		return nil, err
	}
	v := make(flow.Vector, n)
	if !sc.tpl[colShortF].Chain(&r, v) {
		return nil, noTable(c, colShortF)
	}
	return v, c.EndRun("template", &r, len(v))
}

func (sc *sectionCodec) shortTemplates(c *wire.Cursor) ([]flow.Vector, error) {
	n, err := c.Count("short template count", maxCount, 1)
	if err != nil {
		return nil, err
	}
	tpls := make([]flow.Vector, n)
	for i := range tpls {
		if tpls[i], err = sc.shortTemplate(c); err != nil {
			return nil, fmt.Errorf("short template %d: %w", i, err)
		}
	}
	return tpls, nil
}

// appendLongTemplates appends the long-flows-template section, recording
// offsets like appendShortTemplates.
func appendLongTemplates(dst []byte, tpls []LongTemplate, c *coders, idx *archiveIndex) []byte {
	base := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(tpls)))
	w, f, gap := wire.NewRunWriter(c.rans[colLongF]), c.tpl[colLongF], c.tpl[colGap]
	for i := range tpls {
		if idx != nil {
			idx.longOffs = append(idx.longOffs, int64(len(dst)-base))
		}
		t := &tpls[i]
		w.Start(binary.AppendUvarint(dst, uint64(len(t.F))))
		f.PutChain(&w, t.F)
		w.EndRANS()
		for j, g := range t.Gaps {
			gap.For(int(t.F[j+1])).Put(&w, uint64(g/time.Microsecond))
		}
		dst = w.EndRun(len(t.F) + len(t.Gaps))
	}
	return dst
}

// longTemplate decodes one long template.
func (sc *sectionCodec) longTemplate(c *wire.Cursor) (LongTemplate, error) {
	n, err := c.UvarintMax("template length", maxCount)
	if err != nil {
		return LongTemplate{}, err
	}
	if n == 0 {
		return LongTemplate{}, c.Errorf("empty long template")
	}
	if sc.tpl == nil {
		f, err := c.Bytes("template", int(n))
		if err != nil {
			return LongTemplate{}, err
		}
		if err := c.Fits("long template gaps", len(f)-1, 1); err != nil {
			return LongTemplate{}, err
		}
		gaps := make([]time.Duration, len(f)-1)
		for i := range gaps {
			if gaps[i], err = c.Duration("long template gap", time.Microsecond); err != nil {
				return LongTemplate{}, err
			}
		}
		return LongTemplate{F: f, Gaps: gaps}, nil
	}
	items := 2*int(n) - 1
	r, err := c.Run(columns[colLongF].what, items, sc.rans[colLongF])
	if err != nil {
		return LongTemplate{}, err
	}
	t := LongTemplate{F: make(flow.Vector, n), Gaps: make([]time.Duration, n-1)}
	if !sc.tpl[colLongF].Chain(&r, t.F) {
		return LongTemplate{}, noTable(c, colLongF)
	}
	if err := c.EndRANS(columns[colLongF].what, &r); err != nil {
		return LongTemplate{}, err
	}
	gaps := sc.tpl[colGap]
	for i := range t.Gaps {
		dec := gaps.For(int(t.F[i+1]))
		if dec == nil {
			return LongTemplate{}, noTable(c, colGap)
		}
		us := dec.Next(&r)
		if us > maxIndexUS {
			return LongTemplate{}, c.Errorf("long template gap %d overflows a duration", us)
		}
		t.Gaps[i] = time.Duration(us) * time.Microsecond
	}
	return t, c.EndRun("template", &r, items)
}

func (sc *sectionCodec) longTemplates(c *wire.Cursor) ([]LongTemplate, error) {
	n, err := c.Count("long template count", maxCount, 2)
	if err != nil {
		return nil, err
	}
	tpls := make([]LongTemplate, n)
	for i := range tpls {
		if tpls[i], err = sc.longTemplate(c); err != nil {
			return nil, fmt.Errorf("long template %d: %w", i, err)
		}
	}
	return tpls, nil
}

func appendAddresses(dst []byte, addrs []pkt.IPv4) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(addrs)))
	for _, ip := range addrs {
		dst = binary.BigEndian.AppendUint32(dst, uint32(ip))
	}
	return dst
}

func decodeAddresses(c *wire.Cursor) ([]pkt.IPv4, error) {
	n, err := c.Count("address count", maxCount, 4)
	if err != nil {
		return nil, err
	}
	b, err := c.Bytes("addresses", 4*n)
	if err != nil {
		return nil, err
	}
	addrs := make([]pkt.IPv4, n)
	for i := range addrs {
		addrs[i] = pkt.IPv4(binary.BigEndian.Uint32(b[4*i:]))
	}
	return addrs, nil
}

// sortedTimeSeq returns recs ordered by FirstTS, the order the time-seq
// section is delta encoded in. Every compressor already emits TimeSeq
// sorted, so the copy-and-sort (kept for hand-built archives) is normally
// skipped.
func sortedTimeSeq(recs []TimeSeqRecord) []TimeSeqRecord {
	byFirstTS := func(x, y TimeSeqRecord) int { return cmp.Compare(x.FirstTS, y.FirstTS) }
	if !slices.IsSortedFunc(recs, byFirstTS) {
		recs = slices.Clone(recs)
		slices.SortStableFunc(recs, byFirstTS)
	}
	return recs
}

// appendTimeSeq appends the time-seq section for recs, which must be sorted
// (sortedTimeSeq), in groups of groupSize records, the tag column with the
// new-template symbols or without. With idx non-nil it records the flow
// groups, their new symbols and the address postings as the records are
// written. scratch is reused for each group's run, whose length goes in front
// of it.
func appendTimeSeq(dst []byte, recs []TimeSeqRecord, groupSize int, enc *[numColumns]*wire.Encoder, newTemplates bool, idx *archiveIndex, scratch *[]byte) []byte {
	base := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	dst = binary.AppendUvarint(dst, uint64(groupSize))
	delta, tag, rtt, addr := enc[colDelta], enc[colTag], enc[colRTT], enc[colAddr]
	w := wire.NewRunWriter(false)
	s := timeSeqState{addrs: true, templates: newTemplates}
	for i := 0; i < len(recs); i += groupSize {
		group := recs[i:min(i+groupSize, len(recs))]
		off, before := int64(len(dst)-base), s.next
		w.Start((*scratch)[:0])
		for j := range group {
			d, t, r, a := s.fields(&group[j])
			delta.Put(&w, d)
			tag.Put(&w, t)
			if t&1 == 0 {
				rtt.Put(&w, r)
			}
			addr.Put(&w, a)
			if idx != nil {
				idx.addRecord(i+j, off, uint64(s.clockUS), group[j].Addr)
			}
		}
		if idx != nil {
			g := &idx.groups[len(idx.groups)-1]
			for k, n := range s.next {
				g.fresh[k] = int(n - before[k])
			}
		}
		*scratch = w.EndRun(len(group))
		dst = binary.AppendUvarint(dst, uint64(len(*scratch)))
		dst = append(dst, *scratch...)
	}
	return dst
}

// decodeTimeSeqRecord reads one version 1 or 2 record, advancing *clock (the
// previous record's FirstTS) to this record's.
func decodeTimeSeqRecord(c *wire.Cursor, clock *time.Duration) (TimeSeqRecord, error) {
	var r TimeSeqRecord
	delta, err := c.Duration("time-seq timestamp delta", time.Microsecond)
	if err != nil {
		return r, err
	}
	if delta > math.MaxInt64-*clock {
		return r, c.Errorf("time-seq timestamp %v+%v overflows a duration", *clock, delta)
	}
	*clock += delta
	r.FirstTS = *clock
	tag, err := c.UvarintMax("time-seq template tag", math.MaxUint32<<1|1)
	if err != nil {
		return r, err
	}
	r.Long, r.Template = tag&1 == 1, uint32(tag>>1)
	if r.RTT, err = c.Duration("time-seq rtt", time.Microsecond); err != nil {
		return r, err
	}
	r.Addr, err = c.Uint32("time-seq address index")
	return r, err
}

// group decodes one group of time-seq records into recs — for versions 1 and
// 2, which have no groups in the body, the next len(recs) records — advancing
// *clock from the previous record's FirstTS to the last one's and next past
// the group's new symbols: in version 6 its new addresses and, under
// flagNewTemplates, its new templates. The caller has sized recs, so the count
// is checked here against the bytes that hold it: a version 1 or 2 record is
// at least four bytes, a version 6 group holds at most wire.MaxItemsPerByte
// records a byte. An address or template index is not checked against its
// dataset here: a new symbol can run its counter past the dataset's end, and
// the caller's referential check (Archive.Validate, Reader.loadGroup) refuses
// that like any other dangling index.
func (sc *sectionCodec) group(c *wire.Cursor, recs []TimeSeqRecord, clock *time.Duration, next *[numNew]uint32) (err error) {
	if sc.cols == nil {
		for i := range recs {
			if recs[i], err = decodeTimeSeqRecord(c, clock); err != nil {
				return fmt.Errorf("record %d: %w", i, err)
			}
		}
		return nil
	}
	n, err := c.UvarintMax("time-seq group length", maxCount)
	if err != nil {
		return err
	}
	g, err := c.Sub("time-seq group", int(n))
	if err != nil {
		return err
	}
	r, err := g.Run("time-seq group record count", len(recs), false)
	if err != nil {
		return err
	}
	delta, tag, rtt, addr := sc.cols[colDelta], sc.cols[colTag], sc.cols[colRTT], sc.cols[colAddr]
	if len(recs) > 0 && (delta.Empty() || tag.Empty() || addr.Empty()) {
		return c.Errorf("time-seq records, but a time-seq column's table is empty")
	}
	short := false
	for i := range recs {
		rec := &recs[i]
		d := delta.Next(&r)
		if d > maxIndexUS || time.Duration(d)*time.Microsecond > math.MaxInt64-*clock {
			return c.Errorf("time-seq timestamp %v+%dµs overflows a duration", *clock, d)
		}
		*clock += time.Duration(d) * time.Microsecond
		rec.FirstTS = *clock
		t := tag.Next(&r)
		rec.Long, rec.Template = t&1 == 1, uint32(t>>1)
		if sc.newTemplates { // the tag table ends at 1<<33 - 1, so t>>1 - 1 fits
			rec.Template = uint32(fromSymbol(t>>1, &next[newShort+int(t&1)]))
		}
		if !rec.Long {
			short = true
			us := rtt.Next(&r)
			if us > maxIndexUS {
				return c.Errorf("time-seq rtt %d overflows a duration", us)
			}
			rec.RTT = time.Duration(us) * time.Microsecond
		}
		a := addr.Next(&r)
		if a > math.MaxUint32+1 { // a class table reaches 1<<33 - 1
			return c.Errorf("time-seq address symbol %d overflows an address index", a)
		}
		rec.Addr = uint32(fromSymbol(a, &next[newAddr]))
	}
	if short && rtt.Empty() {
		return c.Errorf("short flows, but the %s table is empty", columns[colRTT].what)
	}
	if err := g.EndRun("time-seq group", &r, len(recs)); err != nil {
		return err
	}
	return g.Done("time-seq group")
}

// holdsRecords reports an error unless the bytes that remain can hold n
// time-seq records — at least four bytes each in versions 1 and 2, at most
// wire.MaxItemsPerByte to the byte in version 6: what a decoder checks
// before it makes a slice of n records.
func (sc *sectionCodec) holdsRecords(c *wire.Cursor, n int) error {
	if sc.cols == nil {
		return c.Fits("time-seq count", n, 4)
	}
	_, err := c.Run("time-seq count", n, false)
	return err
}

// timeSeq decodes the time-seq section and returns the group size it was
// written with (0 for versions 1 and 2, whose records are one unbroken run).
func (sc *sectionCodec) timeSeq(c *wire.Cursor) (recs []TimeSeqRecord, groupSize int, err error) {
	n, err := c.UvarintMax("time-seq count", maxCount)
	if err != nil {
		return nil, 0, err
	}
	step := max(int(n), 1)
	if sc.cols != nil {
		gs, err := c.UvarintMax("time-seq group size", maxCount)
		if err != nil {
			return nil, 0, err
		}
		if gs < 1 {
			return nil, 0, c.Errorf("time-seq group size %d", gs)
		}
		groupSize, step = int(gs), int(gs)
	}
	// In version 6 every group's run lies ahead, and together they hold the
	// records.
	if err := sc.holdsRecords(c, int(n)); err != nil {
		return nil, 0, err
	}
	recs = make([]TimeSeqRecord, n)
	clock, next := time.Duration(0), [numNew]uint32{}
	for i := 0; i < len(recs); i += step {
		if err := sc.group(c, recs[i:min(i+step, len(recs))], &clock, &next); err != nil {
			return nil, 0, fmt.Errorf("time-seq group at %d: %w", i, err)
		}
	}
	return recs, groupSize, nil
}

// decodeSections decodes the five sections, each from its own cursor — all
// the same cursor for the container, one per file for the dataset directory —
// and checks the archive's referential integrity. a.Index records what the
// container said about itself: whether a footer follows, and the group size
// of a version 6 time-seq section when it is not the default.
func decodeSections(hdr, short, long, addrs, timeseq *wire.Cursor) (a *Archive, sc *sectionCodec, err error) {
	a = &Archive{}
	left := hdr.Len()
	if sc, err = decodeHeader(hdr, a); err != nil {
		return nil, nil, err
	}
	sc.sizes.Header, left = int64(left-hdr.Len()), short.Len()
	if a.ShortTemplates, err = sc.shortTemplates(short); err != nil {
		return nil, nil, err
	}
	sc.sizes.ShortTemplates, left = int64(left-short.Len()), long.Len()
	if a.LongTemplates, err = sc.longTemplates(long); err != nil {
		return nil, nil, err
	}
	sc.sizes.LongTemplates, left = int64(left-long.Len()), addrs.Len()
	if a.Addresses, err = decodeAddresses(addrs); err != nil {
		return nil, nil, err
	}
	sc.sizes.Addresses, left = int64(left-addrs.Len()), timeseq.Len()
	groupSize := 0
	if a.TimeSeq, groupSize, err = sc.timeSeq(timeseq); err != nil {
		return nil, nil, err
	}
	sc.sizes.TimeSeq = int64(left - timeseq.Len())
	if err := a.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadArchive, err)
	}
	a.Index.Enabled = sc.indexed
	if groupSize != DefaultIndexGroupSize {
		a.Index.GroupSize = groupSize
	}
	return a, sc, nil
}
