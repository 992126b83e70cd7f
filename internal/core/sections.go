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
// append function and one decode function; Encode writes through the former,
// Decode, Inspect and Reader read through the latter, so the container and the
// indexed read path cannot drift apart. What is written is container version 9: every
// value of the template and time-seq sections belongs to one of eight columns
// and is written by that column's coder (internal/wire column.go: canonical
// Huffman over the values or over their bit lengths with the low bits raw, or
// rANS frequencies over the values, whichever is smallest). The tables are
// per archive and live in the header. The three template columns are coded
// under a context, with a table for every context that holds values: an f
// value under the f before it in its template, a long template's gap i under
// F[i+1], the class of the packet the gap leads to. A TCP transfer's packets
// alternate data and acks with a fixed cadence, and an ack's gap is a round
// trip where a data segment's is a serialisation time; one table per column
// cannot see that, one per context can.
//
// A template's last two f values are the exception: every flow ends in a
// teardown (a FIN from each side, or a RST), and the template's length, coded
// before its values, already says where. So the last two values of every
// template, short and long, are coded under two contexts of their own,
// "second to last" and "last" (wire.ChainSecondLast, wire.ChainLast),
// whatever the value before them, and every earlier value under the one
// before it: context 0 for the first, 3+p after a p (wire.ChainContext). A
// body context then carries no probability for the teardown, and the
// teardown no longer pays for its position in bits.
//
// A round trip is a property of the flow, though, not of the class: one
// table per context still pays for every flow's own RTT in every dependent
// gap. Where the header's flag bit 2 says so, a long template's gap items
// therefore start with r, its RTT (the median of its dependent gaps, as
// Flow.EstimateRTT takes a short flow's; 0 where it has none), under context
// 0, which no gap uses (a gap's context is an f value, at least w1+w2+w3),
// and each dependent gap (Weights.Decompose of the f value it leads to says
// DepDependent, under the header's weights) is written as zigzag(gap - r):
// the paper's model, in which a dependent packet waits one round trip, as
// the decompressor already applies it to short flows. gapModel is that
// mapping, for the encoder's two passes, the decoder and Inspect alike. The
// encoder sets the flag where the gap column's tables and codes, counted both
// ways, come out smaller with it by more than a byte a long template, the
// most a template's run can lose to its padding (columnEncoders).
//
// The f values of a template may go through an rANS state instead, where a
// context is so skewed that Huffman's bit a value is most of what they spend
// (a long transfer's, whose next packet is all but certain). An f column whose
// tables include an rANS-shaped one has every template's f values coded
// through one state, Huffman-shaped tables' too: a group of short templates,
// their lengths included, is then an rANS run, a long template an rANS run
// whose rANS part holds the f values and whose gap items follow as bits. An
// encoder gives an f column rANS tables only where its counts say that makes
// its section strictly smaller, its tables and each run's RANSFlush bytes
// included (columnEncoders): the section is written once, in that form. The
// gaps, the short template lengths and the time-seq columns are always
// Huffman-shaped: µs values gain little from fractions of a bit, and decoding
// them through a state was a third slower than through codes.
//
//	header:    magic "FZT1", version byte 9, flags byte (bit 0: a footer
//	           index follows the body; bit 1: the tag column has the
//	           new-template symbols; bit 2: long template gaps are coded
//	           against the template's RTT)
//	           uvarint w1, w2, w3, shortMax, round(limitPct*100)
//	           uvarint sourcePackets, sourceTSHBytes
//	           three context tables (wire column.go): short f (259
//	           contexts), long f (259), long gap µs (256)
//	           five column tables: short template length (at most
//	           shortMax), time-seq µs delta, tag, rtt µs, address symbol
//	short:     uvarint #templates, uvarint group size (>= 1), then per group
//	           of that many templates (the last may be shorter): uvarint
//	           byte length of the run, a run of one template after another:
//	               its length n, 1 to shortMax, under the length column
//	               n short-f codes: the last two under contexts 1 and 2,
//	               each before them under the one before it (the first
//	               under context 0)
//	long:      uvarint #templates, then per template, on a byte boundary:
//	           uvarint n (>= 1), a run of n long-f codes, under contexts as
//	           a short template's (an rANS part when the column is
//	           rANS-coded), then its gap items: with flag bit 2, r in µs
//	           under context 0; then n-1 gap codes, gap i under F[i+1], in
//	           µs or, with flag bit 2 and F[i+1] dependent, as zigzag(µs - r)
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
// per wire.MaxItemsPerByte items, so a count is always bounded by the bytes
// that hold it even when every code is zero bits long. Every long template
// and every group therefore starts on a byte boundary and decodes alone, from
// the header's tables and, for a time-seq group, its clock and new-symbol
// counters (which the footer index carries): a Reader fetches only what a
// query touches. Short templates, a few bytes each, go in groups; a run of
// their own cost each a length byte, its padding and a footer offset. A long
// template carries its r in its own run, so it too decodes alone.
//
// The decoders read this layout alone; any other version is refused
// (unsupportedVersion).
//
// Decoders read through a wire.Cursor, so every count and length is checked
// against the bytes that remain before anything is sized from it, and errors
// wrap the sentinel of whoever made the cursor (ErrBadArchive for Decode,
// ErrBadIndex for Reader). Nothing decoded aliases the cursor's
// buffer.

var magic = [4]byte{'F', 'Z', 'T', '1'}

const (
	containerVersion = 9
	// flagIndexed in the header's flags byte says a footer index follows the
	// body.
	flagIndexed = 1
	// flagNewTemplates says the time-seq tag column has the new-template
	// symbols.
	flagNewTemplates = 2
	// flagRTTGaps says a long template's dependent gaps are coded against
	// its RTT (gapModel).
	flagRTTGaps = 4
)

// unsupportedVersion refuses a container version the decoders do not read:
// any but containerVersion. A format change deletes the version it replaces
// (ARCHITECTURE.md, Formats); the message names the last commit that reads
// each deleted one.
func unsupportedVersion(v byte) error {
	return fmt.Errorf("%w: unsupported version %d (this build reads version %d (footer format %d); commit 8514c3f is the last to read versions 3 to 5, commit dac74bb the last to read version 6, commit cccd716 the last to read version 7, commit d69a042 the last to read version 8, commit %s the last to read versions 1 and 2, footer format 1 and manifest 1)",
		ErrBadArchive, v, containerVersion, indexVersion, lastPaperEra)
}

// lastPaperEra is the last commit whose decoders read the paper-era layout:
// containers 1 and 2, footer format 1 and manifest 1.
const lastPaperEra = "6a554a3"

// maxCount is the sanity bound on any count parsed from an archive or
// footer index — far above any real trace, far below what would let a
// corrupt stream demand gigabytes.
const maxCount = 1 << 28

// maxDecodeAmplification is the most any decoder allocates per input byte.
// Items of a version 9 run are packed at most wire.MaxItemsPerByte to the
// byte, a count is refused unless its run can hold it (wire.Cursor.Run), and
// the largest thing decoded per item is a 32-byte TimeSeqRecord (a short
// template's slice and vector take at most 20 an item, a long template 18 a
// packet of two items — its f value and at most maxGapBytes of packed gap,
// once in the scratch it is decoded in and once in its exact copy — and an
// address 4 per 4). The footer's run is not padded, so each of its
// counts is bounded by the body section it indexes instead: a short template,
// with the Reader's empty one, offset and flag, 33 bytes, four to a byte of
// short section; a long one 57 per byte of long section; a group entry, with
// the Reader's slot for its records, 112 per byte of time-seq section; an
// address list 24 per 4 bytes of address section; and a posting 4, at most
// one per flow, so 4 per record of the time-seq section. What is not proportional to the input is the lookup tables — a table of
// 12-bit codes is a dozen bytes and asks for 8 KiB — so their sum is bounded
// by construction instead: lookupBudget, the tables of a header and a footer
// together.
const maxDecodeAmplification = wire.MaxItemsPerByte * 32

// lookupBudget is the most lookup bytes a container's tables ask for: each of
// the three template columns' context tables together at most
// wire.MaxContextLookup, which a decoder refuses to exceed and an encoder
// keeps within — twice that for the f columns, whose direct tables are laid
// out in their chain instead (wire.ContextDecoder.Build: the same entries,
// four bytes wide, as an rANS table's lookup is); each of the short template
// length table, the four time-seq and the eleven footer tables, all Huffman
// tables, at most 2<<wire.MaxCodeLen; and the gap column's dependence table,
// one byte an f value (gapModel). The context-0 table of the RTTs is one of
// the gap column's and shares its wire.MaxContextLookup.
const lookupBudget = (numContextCols+2)*wire.MaxContextLookup + (numColumns-numContextCols+numFooterCols)*(2<<wire.MaxCodeLen) + fValues

// The columns, in header order. The first numContextCols, the template
// columns, are coded under a context.
const (
	colShortF = iota
	colLongF
	colGap
	colShortLen
	colDelta
	colTag
	colRTT
	colAddr
	numColumns

	numContextCols = colGap + 1
)

// columns names each column, the largest value its destination holds (the
// address symbol's is one more than an address index's; a gap's is a
// residual's, zigzag(-maxIndexUS) or zigzag(maxIndexUS), the gap itself held
// to maxIndexUS as it is rebuilt; a short template's length is held to the
// header's short-flow maximum instead) and, for a template column, its number
// of contexts: an f value's is its place at the end of its template or the f
// before it (wire.ChainContexts), a gap's the f it leads to.
var columns = [numColumns]struct {
	what     string
	max      uint64
	contexts int
}{
	{"short template value", math.MaxUint8, wire.ChainContexts}, {"long template value", math.MaxUint8, wire.ChainContexts},
	{"long template gap", 2 * maxIndexUS, fValues}, {"short template length", math.MaxInt32, 0},
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
// of each new symbol it has written. Every section has the new-address
// symbol; whether it has the new-template ones is fixed for the section
// (templates, under flagNewTemplates).
type timeSeqState struct {
	clockUS   int64
	next      [numNew]uint32
	templates bool
}

// fields returns the four values record r is written as and moves s past it.
// Timestamps never step backwards on the wire, and a long flow has no rtt
// column. An index the section has a new symbol for is written as 0 where it
// equals that symbol's count so far, which then advances, and as index+1
// anywhere else; a template index without one is written as it is. The tag
// is the template's index so written, under the counter of its kind, <<1 |
// long.
func (s *timeSeqState) fields(r *TimeSeqRecord) (delta, tag, rtt, addr uint64) {
	d := max(int64(r.FirstTS/time.Microsecond)-s.clockUS, 0)
	s.clockUS += d
	kind := newShort
	if r.Long {
		kind = newLong
	} else {
		rtt = uint64(r.RTT / time.Microsecond)
	}
	return uint64(d), s.symbol(r.Template, kind, s.templates)<<1 | uint64(kind-newShort), rtt, s.symbol(r.Addr, newAddr, true)
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
// rANS state, whether the tag column has the new-template symbols, how the
// long templates' gaps are coded, each one's RTT in µs and their gaps in µs,
// one template's after another's, decoded once for both passes.
type coders struct {
	tpl          [numContextCols]*wire.ContextEncoder
	enc          [numColumns]*wire.Encoder
	rans         [numContextCols]bool
	newTemplates bool
	gaps         gapModel
	rtts, us     []uint64
}

// flags is the header's flags byte for the body c writes, footer aside.
func (c *coders) flags() byte {
	f := byte(0)
	if c.newTemplates {
		f |= flagNewTemplates
	}
	if c.gaps.rtt {
		f |= flagRTTGaps
	}
	return f
}

// fValues is the number of f values, the contexts of the gap column.
const fValues = math.MaxUint8 + 1

// gapModel is the one definition of how a long template's gaps map to the
// values of the gap column and back: which f values are a dependent packet's,
// under the header's weights, and whether the dependent gaps are coded
// against the template's RTT (flagRTTGaps). The encoder counts and writes
// through walk, Inspect counts through it, and the decoder inverts it with
// gap.
type gapModel struct {
	dependent [fValues]bool
	rtt       bool
}

// newGapModel builds the model of weights w: for every f value, whether
// Weights.Decompose gives DepDependent. Weights that are not all positive,
// which no header carries (Options.Validate), have no dependent f values.
func newGapModel(w flow.Weights, rtt bool) gapModel {
	m := gapModel{rtt: rtt}
	if w.Flag > 0 && w.Dep > 0 && w.Size > 0 {
		for f := range m.dependent {
			_, dep, _ := w.Decompose(f)
			m.dependent[f] = dep == flow.DepDependent
		}
	}
	return m
}

// appendGapsUS appends template t's gaps in µs, decoded from its packed run,
// to dst and returns the result. The run must be well formed
// (Archive.Validate).
func appendGapsUS(dst []uint64, t *LongTemplate) []uint64 {
	for us := range wire.Uvarints(t.Gaps) {
		dst = append(dst, us)
	}
	return dst
}

// templateRTT is r, template t's RTT in µs: the median of its dependent gaps,
// us (appendGapsUS), the upper one of an even count as Flow.EstimateRTT takes a
// short flow's, and 0 where it has none. scratch holds the dependent gaps
// while the median is found.
func (m *gapModel) templateRTT(t *LongTemplate, us []uint64, scratch *[]uint64) uint64 {
	deps := (*scratch)[:0]
	for j, g := range us {
		if m.dependent[t.F[j+1]] {
			deps = append(deps, g)
		}
	}
	*scratch = deps
	if len(deps) == 0 {
		return 0
	}
	return upperMedian(deps)
}

// upperMedian returns v[len(v)/2] of v sorted, reordering v. It selects
// rather than sorts — sorting every long template's dependent gaps doubled
// the encode time of the bench's bulk — by three-way partitions around a
// median of three, which end as soon as the median is among the values equal
// to the pivot; past 2·log2 n partitions it sorts what is left, so it is
// linear on the gaps of a capture and n log n at worst.
func upperMedian(v []uint64) uint64 {
	k, lo, hi := len(v)/2, 0, len(v)
	for budget := 2 * bits.Len(uint(len(v))); budget > 0 && hi-lo > 1; budget-- {
		a, b, c := v[lo], v[lo+(hi-lo)/2], v[hi-1]
		p := max(min(a, b), min(max(a, b), c))
		lt, i, gt := lo, lo, hi // v[lo:lt] < p, v[lt:i] == p, v[gt:hi] > p
		for i < gt {
			switch {
			case v[i] < p:
				v[lt], v[i] = v[i], v[lt]
				lt++
				i++
			case v[i] > p:
				gt--
				v[i], v[gt] = v[gt], v[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return p
		}
	}
	slices.Sort(v[lo:hi])
	return v[k]
}

// walk calls visit with the context and value of each gap item of template
// t, whose gaps in µs are us (appendGapsUS), in the order its run holds them, r
// being its RTT in µs: with the RTT flag, r under context 0 first; then gap i
// under F[i+1], as its µs or, with the flag and F[i+1] dependent, as
// zigzag(µs - r). The gaps must not be negative (Archive.Validate).
func (m *gapModel) walk(t *LongTemplate, us []uint64, r uint64, visit func(ctx int, v uint64)) {
	if m.rtt {
		visit(0, r)
	}
	for j, g := range us {
		f := t.F[j+1]
		if m.rtt && m.dependent[f] {
			g = zigzag(int64(g - r))
		}
		visit(int(f), g)
	}
}

// gap inverts walk: the µs gap that the value v, read under context f, stands
// for, r being the template's RTT, and whether it is one a duration holds, 0
// to maxIndexUS. v and r come from tables that end below 1<<55, so the sum
// cannot overflow.
func (m *gapModel) gap(f uint8, v, r uint64) (uint64, bool) {
	if m.rtt && m.dependent[f] {
		g := int64(r) + unzigzag(v)
		return uint64(g), g >= 0 && uint64(g) <= maxIndexUS
	}
	return v, v <= maxIndexUS
}

// items is the number of items in the run of a long template of n packets:
// its f values, its gaps and, with the RTT flag, r.
func (m *gapModel) items(n int) int {
	if m.rtt {
		return 2 * n
	}
	return 2*n - 1
}

// zigzag maps a signed residual to an unsigned value, small magnitudes of
// either sign to small values: 0, -1, 1, -2 to 0, 1, 2, 3.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// ransColumns are the columns whose values may go through an rANS state.
var ransColumns = [...]int{colShortF, colLongF}

// columnEncoders is the first of the encoder's two passes over the archive,
// recs being its sorted time-seq records: count every column, then build its
// tables and pick how each f column, the tag column and the gap column are
// coded. Every table is the cheaper Huffman shape, the tag the template index
// itself and a gap its µs, unless one of three choices makes the archive
// strictly smaller:
//
//   - an f column takes rANS tables when its tables built from all three
//     shapes include one, and their cost plus RANSFlush bytes a run (a group
//     of short templates, or a long template) is strictly below its Huffman
//     tables' cost: then its values go through an rANS state. Both costs are
//     the tables and the values under them, counted (wire.Encoder.Cost); an
//     rANS part takes at most its values' cost and the flush (wire's
//     TestRANSRunBound), so the column is written once, in the form the
//     counts pick;
//   - the tag column takes the new-template symbols when its table and codes
//     with them, plus the two counts they add to every footer group entry, are
//     smaller than its table and codes without them. The footer is counted
//     whether or not one follows, so that the body is the same bytes either
//     way, each count at its uvarint length (footer format 4's), which keeps
//     the flag, and the time-seq section, where they were;
//   - the gap column is coded against each long template's RTT when its
//     tables and codes that way, plus a byte a long template, are smaller
//     than its tables and codes without: the two counts are exact bits, and a
//     template's run, rounded up to a byte, can take at most one byte more
//     than its bits say, so the flag never makes the section larger.
//
// (forEachValue in inspect.go is the same walk for any visitor; the loops are
// spelled out here because this one runs on every Encode. Both walk the gaps
// through gapModel.walk, the one definition of the values they are coded as.)
func (a *Archive) columnEncoders(recs []TimeSeqRecord, buf *encodeBuffers) *coders {
	var th [numContextCols]*wire.ContextHistogram
	for i := range th {
		th[i] = wire.NewContextHistogram(columns[i].contexts)
	}
	var h [numColumns]wire.Histogram
	for _, t := range a.ShortTemplates {
		h[colShortLen].Add(uint64(len(t)))
		th[colShortF].AddChain(t)
	}
	c := &coders{gaps: newGapModel(a.Opts.Weights, false), rtts: buf.rtts[:0], us: buf.us[:0]}
	against := c.gaps // the gaps coded against each template's RTT
	against.rtt = true
	predicted := wire.NewContextHistogram(fValues)
	plainGap, predictedGap := th[colGap].Add, predicted.Add
	gaps := 0 // sized exactly: after a collection empties the pool, one allocation
	for i := range a.LongTemplates {
		gaps += len(a.LongTemplates[i].F) - 1
	}
	c.us = slices.Grow(c.us, gaps)
	for i := range a.LongTemplates {
		t := &a.LongTemplates[i]
		th[colLongF].AddChain(t.F)
		start := len(c.us)
		c.us = appendGapsUS(c.us, t)
		us := c.us[start:]
		c.gaps.walk(t, us, 0, plainGap)
		r := against.templateRTT(t, us, &buf.deps)
		against.walk(t, us, r, predictedGap)
		c.rtts = append(c.rtts, r)
	}
	buf.rtts, buf.us = c.rtts, c.us
	var plain wire.Histogram // the tags without the new-template symbols
	footer := 0              // the bytes the symbols' counts add to the footer
	s, gs := timeSeqState{templates: true}, a.Index.groupSize()
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
	for i := range th {
		c.tpl[i] = th[i].Encoder(false)
	}
	if p := predicted.Encoder(false); p.Cost()+uint64(8*len(a.LongTemplates))<<16 < c.tpl[colGap].Cost() {
		c.tpl[colGap], c.gaps = p, against
	}
	for i := numContextCols; i < numColumns; i++ {
		c.enc[i] = h[i].Encoder(false)
	}
	if p := plain.Encoder(false); c.enc[colTag].Cost()+uint64(8*footer)<<16 < p.Cost() {
		c.newTemplates = true
	} else {
		c.enc[colTag] = p
	}
	runs := [numContextCols]uint64{colShortF: uint64((len(a.ShortTemplates) + gs - 1) / gs), colLongF: uint64(len(a.LongTemplates))}
	for _, col := range ransColumns {
		if r := th[col].Encoder(true); r.RANS() && r.Cost()+runs[col]*(8*wire.RANSFlush<<16) < c.tpl[col].Cost() {
			c.tpl[col], c.rans[col] = r, true
		}
	}
	return c
}

// uvarintLen is the length of v as a uvarint.
func uvarintLen(v uint32) int { return (bits.Len32(v|1) + 6) / 7 }

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

// appendHeader appends the header of the body c writes; flags adds the bits
// that describe what follows the body.
func appendHeader(dst []byte, a *Archive, flags byte, c *coders) []byte {
	dst = appendHeaderFields(dst, a, flags|c.flags())
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

// sectionCodec decodes the body sections of one container: the column
// decoders read from its header, and what its flags say.
type sectionCodec struct {
	indexed        bool     // a footer index follows the body
	newTemplates   bool     // the tag column has the new-template symbols
	gaps           gapModel // how the long template gaps are coded
	shortMax       uint64   // the header's short-flow maximum: the longest short template
	shortGroupSize int      // the short section's group size, for Inspect
	// The template columns by context and the time-seq columns (the template
	// entries stay nil).
	tpl  [numContextCols]*wire.ContextDecoder
	cols [numColumns]*wire.Decoder
	// Whether each f column's values go through an rANS state: where one of
	// its tables is rANS-shaped.
	rans [numContextCols]bool
	// For Inspect: the bytes each column's tables took in the header, the
	// bytes decodeSections consumed per section and, under flagRTTGaps, the
	// RTT each long template's gaps were coded against.
	tables [numColumns]int
	sizes  SectionSizes
	rtts   []uint64
	// scratch is where longTemplate builds each template before its copy.
	scratch []byte
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
	if m[4] != containerVersion {
		return nil, unsupportedVersion(m[4])
	}
	flags, err := c.Bytes("flags", 1)
	if err != nil {
		return nil, err
	}
	if flags[0]&^(flagIndexed|flagNewTemplates|flagRTTGaps) != 0 {
		return nil, c.Errorf("unknown flags %#x", flags[0])
	}
	sc := &sectionCodec{indexed: flags[0]&flagIndexed != 0, newTemplates: flags[0]&flagNewTemplates != 0}
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
	sc.shortMax = uint64(a.Opts.ShortMax)
	sc.gaps = newGapModel(a.Opts.Weights, flags[0]&flagRTTGaps != 0)
	for i, col := range columns {
		before := c.Len()
		switch {
		case i < numContextCols:
			sc.tpl[i], err = c.ReadContexts(col.what, col.contexts, col.max)
		case i == colShortLen:
			sc.cols[i], err = c.ReadDecoder(col.what, sc.shortMax)
		default:
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
	return sc, nil
}

// noTable reports a template value whose context has no table.
func noTable(c *wire.Cursor, col int) error {
	return c.Errorf("%s: a value's context has no table", columns[col].what)
}

// appendShortTemplates appends the short-flows-template section, in groups of
// groupSize templates. With idx non-nil it records each group's offset from
// the start of the section. scratch is reused for each group's run, whose
// length goes in front of it.
func appendShortTemplates(dst []byte, tpls []flow.Vector, groupSize int, c *coders, idx *archiveIndex, scratch *[]byte) []byte {
	base := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(tpls)))
	dst = binary.AppendUvarint(dst, uint64(groupSize))
	w, length, f := wire.NewRunWriter(c.rans[colShortF]), c.enc[colShortLen], c.tpl[colShortF]
	for i := 0; i < len(tpls); i += groupSize {
		if idx != nil {
			idx.shortOffs = append(idx.shortOffs, int64(len(dst)-base))
		}
		w.Start((*scratch)[:0])
		items := 0
		for _, t := range tpls[i:min(i+groupSize, len(tpls))] {
			length.Put(&w, uint64(len(t)))
			f.PutChain(&w, t)
			items += 1 + len(t)
		}
		*scratch = w.EndRun(items)
		dst = binary.AppendUvarint(dst, uint64(len(*scratch)))
		dst = append(dst, *scratch...)
	}
	return dst
}

// shortGroup decodes one group of short templates into tpls. The caller has
// sized tpls, so the count is checked here against the bytes that hold it: a
// template is at least two items, its length and a value. A length is refused
// before its vector is made unless it is 1 to the short-flow maximum and the
// group's items so far fit its run at wire.MaxItemsPerByte to the byte.
func (sc *sectionCodec) shortGroup(c *wire.Cursor, tpls []flow.Vector) error {
	g, r, err := groupRun(c, "short template group", 2*len(tpls), sc.rans[colShortF])
	if err != nil {
		return err
	}
	length, f := sc.cols[colShortLen], sc.tpl[colShortF]
	if len(tpls) > 0 && length.Empty() {
		return c.Errorf("short templates, but the %s table is empty", columns[colShortLen].what)
	}
	items := 0
	for i := range tpls {
		l := length.Next(&r)
		if l == 0 || l > sc.shortMax {
			return c.Errorf("template %d of %d packets, not 1 to the short-flow maximum %d", i, l, sc.shortMax)
		}
		if items += 1 + int(l); items > wire.MaxItemsPerByte*g.Len() {
			return c.Errorf("template %d: %d items in a %d-byte group", i, items, g.Len())
		}
		tpls[i] = make(flow.Vector, l)
		if !f.Chain(&r, tpls[i]) {
			return noTable(c, colShortF)
		}
	}
	if err := g.EndRun("short template group", &r, items); err != nil {
		return err
	}
	return g.Done("short template group")
}

// shortTemplates decodes the short-template section and records its group
// size in sc: a template is two items at least.
func (sc *sectionCodec) shortTemplates(c *wire.Cursor) ([]flow.Vector, error) {
	n, step, err := sectionHead(c, "short template", 2)
	if err != nil {
		return nil, err
	}
	sc.shortGroupSize = step
	tpls := make([]flow.Vector, n)
	for i := 0; i < n; i += step {
		if err := sc.shortGroup(c, tpls[i:min(i+step, n)]); err != nil {
			return nil, fmt.Errorf("short template group at %d: %w", i, err)
		}
	}
	return tpls, nil
}

// sectionHead reads the head of a grouped section — its item count and its
// group size (>= 1) — and holds the count to the bytes that remain before
// anything is sized from it: items a piece at wire.MaxItemsPerByte to the
// byte, in the group runs ahead.
func sectionHead(c *wire.Cursor, what string, items int) (n, groupSize int, err error) {
	count, err := c.UvarintMax(what+" count", maxCount)
	if err != nil {
		return 0, 0, err
	}
	n = int(count)
	gs, err := c.UvarintMax(what+" group size", maxCount)
	if err == nil && gs < 1 {
		err = c.Errorf("%s group size %d", what, gs)
	}
	if err == nil {
		_, err = c.Run(what+" count", items*n, false)
	}
	return n, int(gs), err
}

// groupRun opens the run of a group: its uvarint byte length, the
// bytes behind it as a cursor of their own, and a run over them that can
// hold items items.
func groupRun(c *wire.Cursor, what string, items int, rans bool) (g wire.Cursor, r wire.RunReader, err error) {
	n, err := c.UvarintMax(what+" length", maxCount)
	if err == nil {
		g, err = c.Sub(what, int(n))
	}
	if err == nil {
		r, err = g.Run(what+" item count", items, rans)
	}
	return g, r, err
}

// appendLongTemplates appends the long-flows-template section, recording
// offsets like appendShortTemplates; c.rtts holds each template's RTT and
// c.us their gaps in µs.
func appendLongTemplates(dst []byte, tpls []LongTemplate, c *coders, idx *archiveIndex) []byte {
	base := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(tpls)))
	w, f, gap := wire.NewRunWriter(c.rans[colLongF]), c.tpl[colLongF], c.tpl[colGap]
	put := func(ctx int, v uint64) { gap.For(ctx).Put(&w, v) }
	us := c.us
	for i := range tpls {
		if idx != nil {
			idx.longOffs = append(idx.longOffs, int64(len(dst)-base))
		}
		t := &tpls[i]
		w.Start(binary.AppendUvarint(dst, uint64(len(t.F))))
		f.PutChain(&w, t.F)
		w.EndRANS()
		n := len(t.F) - 1
		c.gaps.walk(t, us[:n], c.rtts[i], put)
		us = us[n:]
		dst = w.EndRun(c.gaps.items(len(t.F)))
	}
	return dst
}

// maxGapBytes is the most one gap a decoder rebuilds takes in a packed run:
// at most maxIndexUS µs, below 1<<54, 54 bits at 7 a byte.
const maxGapBytes = (54 + 6) / 7

// longTemplate decodes one long template and returns it with the RTT its
// gaps were coded against, 0 without flagRTTGaps. The RTT is refused unless a
// duration holds it before the gaps are made, and so is every gap it
// rebuilds. The f values and the packed gaps are built in sc.scratch, which
// is reserved for the longest run n values can take, and copied out into one
// allocation of their exact size.
func (sc *sectionCodec) longTemplate(c *wire.Cursor) (LongTemplate, uint64, error) {
	n, err := c.UvarintMax("template length", maxCount)
	if err != nil {
		return LongTemplate{}, 0, err
	}
	if n == 0 {
		return LongTemplate{}, 0, c.Errorf("empty long template")
	}
	m := &sc.gaps
	items := m.items(int(n))
	r, err := c.Run(columns[colLongF].what, items, sc.rans[colLongF])
	if err != nil {
		return LongTemplate{}, 0, err
	}
	// Each gap, at most maxIndexUS µs, packs into at most maxGapBytes.
	b := slices.Grow(sc.scratch[:0], int(n)+maxGapBytes*int(n-1))[:n]
	sc.scratch = b
	if !sc.tpl[colLongF].Chain(&r, b) {
		return LongTemplate{}, 0, noTable(c, colLongF)
	}
	if err := c.EndRANS(columns[colLongF].what, &r); err != nil {
		return LongTemplate{}, 0, err
	}
	gaps, rtt := sc.tpl[colGap], uint64(0)
	if m.rtt {
		dec := gaps.For(0)
		if dec == nil {
			return LongTemplate{}, 0, noTable(c, colGap)
		}
		if rtt = dec.Next(&r); rtt > maxIndexUS {
			return LongTemplate{}, 0, c.Errorf("long template rtt %dµs overflows a duration", rtt)
		}
	}
	for i := range n - 1 {
		f := b[i+1]
		dec := gaps.For(int(f))
		if dec == nil {
			return LongTemplate{}, 0, noTable(c, colGap)
		}
		us, ok := m.gap(f, dec.Next(&r), rtt)
		if !ok {
			return LongTemplate{}, 0, c.Errorf("long template gap %d of %dµs is not 0 to %d", i, int64(us), maxIndexUS)
		}
		b = binary.AppendUvarint(b, us)
	}
	if err := c.EndRun("template", &r, items); err != nil {
		return LongTemplate{}, 0, err
	}
	return newLongTemplate(b, int(n)), rtt, nil
}

// longTemplates decodes the long-template section and, under flagRTTGaps,
// records each template's RTT in sc, for Inspect.
func (sc *sectionCodec) longTemplates(c *wire.Cursor) ([]LongTemplate, error) {
	n, err := c.Count("long template count", maxCount, 2)
	if err != nil {
		return nil, err
	}
	tpls := make([]LongTemplate, n)
	if sc.gaps.rtt {
		sc.rtts = make([]uint64, n)
	}
	for i := range tpls {
		var rtt uint64
		if tpls[i], rtt, err = sc.longTemplate(c); err != nil {
			return nil, fmt.Errorf("long template %d: %w", i, err)
		}
		if sc.rtts != nil {
			sc.rtts[i] = rtt
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
	s := timeSeqState{templates: newTemplates}
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

// group decodes one group of time-seq records into recs, advancing *clock
// from the previous record's FirstTS to the last one's and next past the
// group's new symbols: its new addresses and, under flagNewTemplates, its new
// templates. The caller has sized recs, so the count is checked here against
// the bytes that hold it: a group holds at most wire.MaxItemsPerByte records a
// byte. An address or template index is not checked against its dataset
// here: a new symbol can run its counter past the dataset's end, and the
// caller's referential check (Archive.Validate, Reader.loadGroup) refuses that
// like any other dangling index.
func (sc *sectionCodec) group(c *wire.Cursor, recs []TimeSeqRecord, clock *time.Duration, next *[numNew]uint32) error {
	g, r, err := groupRun(c, "time-seq group", len(recs), false)
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

// timeSeq decodes the time-seq section and returns the group size it was
// written with: a record is an item at least.
func (sc *sectionCodec) timeSeq(c *wire.Cursor) (recs []TimeSeqRecord, groupSize int, err error) {
	n, step, err := sectionHead(c, "time-seq", 1)
	if err != nil {
		return nil, 0, err
	}
	recs = make([]TimeSeqRecord, n)
	clock, next := time.Duration(0), [numNew]uint32{}
	for i := 0; i < n; i += step {
		if err := sc.group(c, recs[i:min(i+step, n)], &clock, &next); err != nil {
			return nil, 0, fmt.Errorf("time-seq group at %d: %w", i, err)
		}
	}
	return recs, step, nil
}

// decodeSections decodes the five sections from c, in container order, and
// checks the archive's referential integrity. a.Index records what the
// container said about itself: whether a footer follows, and the group size
// of its time-seq section when it is not the default.
func decodeSections(c *wire.Cursor) (a *Archive, sc *sectionCodec, err error) {
	a = &Archive{}
	left := c.Len()
	if sc, err = decodeHeader(c, a); err != nil {
		return nil, nil, err
	}
	sc.sizes.Header, left = int64(left-c.Len()), c.Len()
	if a.ShortTemplates, err = sc.shortTemplates(c); err != nil {
		return nil, nil, err
	}
	sc.sizes.ShortTemplates, left = int64(left-c.Len()), c.Len()
	if a.LongTemplates, err = sc.longTemplates(c); err != nil {
		return nil, nil, err
	}
	sc.sizes.LongTemplates, left = int64(left-c.Len()), c.Len()
	if a.Addresses, err = decodeAddresses(c); err != nil {
		return nil, nil, err
	}
	sc.sizes.Addresses, left = int64(left-c.Len()), c.Len()
	groupSize := 0
	if a.TimeSeq, groupSize, err = sc.timeSeq(c); err != nil {
		return nil, nil, err
	}
	sc.sizes.TimeSeq = int64(left - c.Len())
	if err := a.validate(false); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadArchive, err)
	}
	a.Index.Enabled = sc.indexed
	if groupSize != DefaultIndexGroupSize {
		a.Index.GroupSize = groupSize
	}
	return a, sc, nil
}
