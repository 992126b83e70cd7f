package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// The column coder: the one entropy layout under every .fz section. A column
// is a run of unsigned values that share a distribution (every time-seq tag,
// every long-template gap). An encoder counts the column (Histogram), derives
// one table from the counts (Encoder) and then writes each value under it.
// The table has one of four shapes, whichever makes table plus codes smaller
// on the column's own counts:
//
//	mode 0, direct:      canonical Huffman codes of at most MaxCodeLen bits
//	                     over the column's values
//	mode 1, class:       the same over bit lengths; a value of bit length
//	                     c > 1 is its class's code followed by its c-1 low bits
//	mode 2, rANS direct: frequencies summing to 1<<scale, scale at most
//	                     MaxCodeLen, over the column's values
//	mode 3, rANS class:  the same over bit lengths, low bits as in mode 1
//
// and is stored as
//
//	byte mode
//	byte scale (modes 2 and 3 only, 1 to MaxCodeLen)
//	uvarint #symbols (at most MaxSymbols)
//	per symbol, ascending: uvarint (symbol - previous symbol)<<4 | code length
//	                       (modes 0, 1)
//	                    or uvarint (symbol - previous symbol)<<scale | freq-1
//	                       (modes 2, 3)
//
// A Huffman table of one symbol gives it length 0: the column costs no bits.
// Any other Huffman table must be a complete prefix code (Kraft sum exactly
// one), and the frequencies of an rANS table must sum to exactly 1<<scale,
// which is what lets a decoder resolve every value with one lookup and no
// validity check.
//
// Values are written in runs (RunWriter), of which there are two kinds. A bit
// run packs Huffman codes, most significant bit first; it cannot hold an rANS
// table's values. An rANS run starts with an rANS part, which codes its
// values through one 32-bit rANS state, renormalized a byte at a time: a
// Huffman-shaped table's symbol of code length l in a table of longest code b
// is a frequency of 1<<(b-l) at scale b, which costs exactly its l bits, an
// rANS table's symbol is its frequency, and low bits go as uniform symbols of
// at most 8 bits. The part is coded back to front from the state's initial
// value and stores the state it ends in first, RANSFlush bytes, then the bytes
// the state shed; decoding it brings the state back to its initial value
// having read exactly those bytes, or the run is refused. Whatever the run
// holds after its rANS part (EndRANS) is bits. Because an item may cost zero
// bits, or next to none, a run of n items is padded to at least
// n/MaxItemsPerByte bytes and a decoder refuses a count its run cannot hold
// (Cursor.Run), so nothing is sized beyond a constant multiple of the input.
//
// A column may also be coded under a context: a small number the decoder
// knows before it reads the value, such as the value before it
// (ContextHistogram, ContextEncoder, ContextDecoder). Every context that holds
// values has a table of its own, built by the same rule, and the tables are
// stored as
//
//	uvarint #tables (at most the number of contexts)
//	per table, ascending by context: uvarint (context - previous context),
//	the first from 0, then the table as above
//
// A context with no values has no table and costs nothing; a value whose
// context has no table does not decode. A decoder resolves a value with one
// lookup: of 2<<bits bytes for a Huffman table whose longest code is bits
// long, of 4<<scale for an rANS table, whose entries say how the state moves
// on as well as which symbol it is (so an rANS table has at most 256
// symbols). A table of 12-bit codes is stored in a dozen bytes, so the
// lookups are what the input does not bound: the tables of one context column
// together may ask for at most MaxContextLookup bytes of them. A decoder
// refuses more before it builds any; an encoder shortens its longest codes
// and lowers its scales, largest lookup first, until its tables fit.

const (
	// MaxCodeLen is the longest code a table may assign, and the largest
	// scale: a decoder's lookup table has at most 1<<MaxCodeLen entries.
	MaxCodeLen = 12
	// MaxSymbols is the largest alphabet of one table.
	MaxSymbols = 1 << MaxCodeLen
	// MaxItemsPerByte is the densest a run of coded items is ever packed.
	MaxItemsPerByte = 8
	// RANSFlush is the bytes an rANS run stores its state in.
	RANSFlush = 4

	// ChainContexts is the number of contexts of a column of bytes each coded
	// under the one before it (ContextEncoder.PutChain, ContextDecoder.Chain):
	// context 0 for the first, v+1 after a v. No column has more.
	ChainContexts = 257
	// MaxContextLookup is the most lookup bytes the tables of one context
	// column may ask for together.
	MaxContextLookup = 128 << 10

	// The table modes: bit 0 says class, bit 1 rANS.
	modeDirect    = 0
	modeClass     = 1
	modeRANS      = 2
	modeRANSClass = modeRANS | modeClass

	// directLimit bounds the values a direct table built here may name: the
	// counting pass indexes a dense array by value. The columns worth a
	// direct table are indexes (templates, addresses), which are dense.
	directLimit = 4 * MaxSymbols

	// minLimit is the shortest code limit an encoder shortens a context table
	// to: a class table, of at most 65 symbols, always fits it.
	minLimit = 7
	// maxRANSSymbols is the largest alphabet of an rANS table: a lookup entry
	// names its symbol in a byte.
	maxRANSSymbols = 256

	// ransLow is the least an rANS state holds between items, and its value
	// at the start and end of a run; it stays below ransLow<<8.
	ransLow = 1 << 23
	// chunkBits is the most low bits one uniform rANS symbol carries.
	chunkBits = 8
)

// A context column's tables can always be shortened to fit the budget: every
// table a Huffman one at minLimit bits, in every context, asks for no more
// than it.
const _ = uint(MaxContextLookup - ChainContexts*(2<<minLimit))

// Histogram counts one column.
type Histogram struct {
	small [256]uint64 // occurrences of each value below 256
	// large[v] counts the occurrences of v >= 256 while a direct table is
	// still possible: nil once a value reached directLimit or more than
	// MaxSymbols distinct ones were seen (wide).
	large    []uint64
	distinct int
	wide     bool
	classes  [65]uint64 // classes[c]: occurrences of values >= 256 of bit length c
}

// Add counts one occurrence of v.
func (h *Histogram) Add(v uint64) {
	if v < uint64(len(h.small)) {
		h.small[v]++
		return
	}
	h.addLarge(v)
}

// addLarge is kept out of line so that Add stays small enough to inline into
// the counting loops.
//
//go:noinline
func (h *Histogram) addLarge(v uint64) {
	h.classes[bits.Len64(v)]++
	if v >= uint64(len(h.large)) {
		if h.wide {
			return
		}
		if v >= directLimit {
			h.wide, h.large = true, nil
			return
		}
		// Powers of two, so a column creeping upwards is copied at most six
		// times.
		grown := make([]uint64, 1<<bits.Len64(v))
		copy(grown, h.large)
		h.large = grown
	}
	if h.large[v] == 0 {
		if h.distinct == MaxSymbols {
			h.wide, h.large = true, nil
			return
		}
		h.distinct++
	}
	h.large[v]++
}

// code is how one symbol is written: its canonical Huffman code and, for an
// rANS run, its slots — start | freq<<12 | scale<<25, the slots [start,
// start+freq) of 1<<scale.
type code struct {
	bits  uint16
	len   uint8
	slots uint32
}

// slots packs a symbol's share of an rANS state: freq of the 1<<scale slots,
// from start on.
func slots(start, freq, scale uint32) uint32 { return start | freq<<12 | scale<<25 }

// Encoder writes the values of the column it was built from.
type Encoder struct {
	mode  byte
	bits  uint8    // the longest code or the scale
	syms  []uint64 // the table: symbols ascending
	lens  []uint8  // and their code lengths (Huffman shape)
	freqs []uint32 // or frequencies (rANS shape)
	codes []code   // indexed by value (direct, at least 256 long) or by bit length (class)
}

// Encoder builds the cheapest table for the values counted so far: of the two
// Huffman shapes, or with rans of all four.
func (h *Histogram) Encoder(rans bool) *Encoder { return h.encoder(MaxCodeLen, rans) }

// encoder builds the cheapest table with codes and scales of at most limit
// (>= minLimit) bits; a direct table of more than 1<<limit symbols is not a
// candidate. Between Huffman shapes a tie goes to the direct one, between a
// Huffman and an rANS shape to the Huffman one.
func (h *Histogram) encoder(limit int, rans bool) *Encoder {
	classes, distinct := h.classes, h.distinct
	for v, n := range h.small {
		classes[bits.Len64(uint64(v))] += n
		if n != 0 {
			distinct++
		}
	}
	best := newEncoder(modeClass, classes[:], limit)
	cost := best.cost(classes[:])
	var values []uint64
	if !h.wide && distinct <= 1<<limit {
		values = make([]uint64, max(len(h.small), len(h.large)))
		copy(values, h.large)
		copy(values, h.small[:])
		direct := newEncoder(modeDirect, values, limit)
		if c := direct.cost(values); c <= cost {
			best, cost = direct, c
		}
	}
	if !rans {
		return best
	}
	for _, shape := range [...]struct {
		mode   byte
		counts []uint64
	}{{modeRANSClass, classes[:]}, {modeRANS, values}} {
		if r := newRANSEncoder(shape.mode, shape.counts, limit); r != nil {
			if c := r.cost(shape.counts); c < cost {
				best, cost = r, c
			}
		}
	}
	return best
}

// present returns the symbols with a non-zero count, ascending, and their
// counts.
func present(counts []uint64) (syms, n []uint64) {
	for s, c := range counts {
		if c != 0 {
			syms, n = append(syms, uint64(s)), append(n, c)
		}
	}
	return syms, n
}

// newEncoder builds the Huffman table over the symbols with a non-zero count.
func newEncoder(mode byte, counts []uint64, limit int) *Encoder {
	e := &Encoder{mode: mode, codes: make([]code, len(counts))}
	var n []uint64
	e.syms, n = present(counts)
	e.lens = codeLengths(n, limit)
	for _, l := range e.lens {
		e.bits = max(e.bits, l)
	}
	for i, c := range canonicalCodes(e.lens) {
		shift := uint32(e.bits - e.lens[i])
		e.codes[e.syms[i]] = code{bits: c, len: e.lens[i], slots: slots(uint32(c)<<shift, 1<<shift, uint32(e.bits))}
	}
	return e
}

// newRANSEncoder builds the rANS table over the symbols with a non-zero count,
// at the scale of at most limit bits that makes table plus codes cheapest; nil
// when there are fewer than two symbols, which a Huffman table codes in no
// bits, or more than maxRANSSymbols.
func newRANSEncoder(mode byte, counts []uint64, limit int) *Encoder {
	syms, n := present(counts)
	if len(syms) < 2 || len(syms) > maxRANSSymbols {
		return nil
	}
	var best, freqs []uint32
	bestScale, bestCost := 0, uint64(math.MaxUint64)
	for scale := bits.Len(uint(len(syms) - 1)); scale <= limit; scale++ {
		freqs = normalize(n, scale, freqs)
		table, cost := 2+uvarintLen(uint64(len(syms))), uint64(0)
		prev := uint64(0)
		for i, s := range syms {
			table += uvarintLen((s-prev)<<scale | uint64(freqs[i]-1))
			prev = s
			cost += n[i] * (uint64(scale)<<16 - log2Fixed(uint64(freqs[i])))
		}
		if cost += uint64(table) * 8 << 16; cost < bestCost {
			best, bestScale, bestCost = append(best[:0], freqs...), scale, cost
		}
	}
	if best == nil {
		return nil // more symbols than 1<<limit slots
	}
	return ransEncoder(mode, syms, best, bestScale, len(counts))
}

// ransEncoder is the rANS table giving the symbols, ascending and below
// alphabet, these frequencies at the scale.
func ransEncoder(mode byte, syms []uint64, freqs []uint32, scale, alphabet int) *Encoder {
	e := &Encoder{mode: mode, bits: uint8(scale), syms: syms, freqs: freqs, codes: make([]code, alphabet)}
	start := uint32(0)
	for i, s := range syms {
		e.codes[s].slots = slots(start, freqs[i], uint32(scale))
		start += freqs[i]
	}
	return e
}

// normalize spreads the 1<<scale slots of an rANS table over symbols with
// these counts, at most 1<<scale of them, into freqs: one slot each, the rest
// in proportion to the counts, rounded down, and what the rounding leaves to
// the most frequent symbol.
func normalize(counts []uint64, scale int, freqs []uint32) []uint32 {
	total := uint64(0)
	for _, c := range counts {
		total += c
	}
	spare := uint64(1)<<scale - uint64(len(counts))
	left, top := spare, 0
	freqs = freqs[:0]
	for i, c := range counts {
		hi, lo := bits.Mul64(c, spare)
		f, _ := bits.Div64(hi, lo, total)
		freqs = append(freqs, 1+uint32(f))
		left -= f
		if c > counts[top] {
			top = i
		}
	}
	freqs[top] += uint32(left)
	return freqs
}

// log2Fixed is log2(x) in 1/65536ths of a bit, rounded down, for x >= 1: the
// bit length, then each bit of the fraction from one squaring of the
// mantissa. It is integer arithmetic, so that an encoder picks the same
// tables on every platform.
func log2Fixed(x uint64) uint64 {
	n := bits.Len64(x) - 1
	m := x << (63 - n) >> 32 // the mantissa, in [1<<31, 1<<32)
	r := uint64(n) << 16
	for b := uint64(1) << 15; b != 0; b >>= 1 {
		if m = m * m >> 31; m >= 1<<32 {
			m >>= 1
			r |= b
		}
	}
	return r
}

// uvarintLen is the length of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// lookup is the size of the lookup a decoder builds for the table.
func (e *Encoder) lookup() int {
	if e.rans() {
		return 4 << e.bits
	}
	return 2 << e.bits
}

// rans reports an rANS-shaped table, whose values only an rANS run holds.
func (e *Encoder) rans() bool { return e.mode&modeRANS != 0 }

// cost is the table's size plus the code and low bits of a column with these
// counts, in 1/65536ths of a bit.
func (e *Encoder) cost(counts []uint64) uint64 {
	total := uint64(len(e.AppendTable(nil))) * 8 << 16
	for i, s := range e.syms {
		per := uint64(0)
		if e.rans() {
			per = uint64(e.bits)<<16 - log2Fixed(uint64(e.freqs[i]))
		} else {
			per = uint64(e.lens[i]) << 16
		}
		if e.mode&modeClass != 0 && s > 1 {
			per += (s - 1) << 16
		}
		total += counts[s] * per
	}
	return total
}

// AppendTable appends the stored form of the table.
func (e *Encoder) AppendTable(dst []byte) []byte {
	dst = append(dst, e.mode)
	if e.rans() {
		dst = append(dst, e.bits)
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.syms)))
	prev := uint64(0)
	for i, s := range e.syms {
		if e.rans() {
			dst = binary.AppendUvarint(dst, (s-prev)<<e.bits|uint64(e.freqs[i]-1))
		} else {
			dst = binary.AppendUvarint(dst, (s-prev)<<4|uint64(e.lens[i]))
		}
		prev = s
	}
	return dst
}

// Put writes v, which must be one of the values the histogram counted.
func (e *Encoder) Put(w *RunWriter, v uint64) {
	if e.mode&modeClass != 0 {
		e.putClass(w, v)
		return
	}
	c := &e.codes[v]
	if w.rans {
		w.ops = append(w.ops, c.slots)
		return
	}
	w.writeBits(uint64(c.bits), uint(c.len))
}

func (e *Encoder) putClass(w *RunWriter, v uint64) {
	n := uint(bits.Len64(v))
	c := &e.codes[n]
	if n > 1 {
		n-- // the low bits that follow the code
	} else {
		n = 0
	}
	low := v &^ (1 << n)
	if w.rans {
		w.ops = append(w.ops, c.slots)
		// Uniform symbols of at most chunkBits low bits, the most
		// significant first.
		for n > 0 {
			k := (n-1)%chunkBits + 1
			n -= k
			w.ops = append(w.ops, slots(uint32(low>>n)&(1<<k-1), 1, uint32(k)))
		}
		return
	}
	if n <= 32-MaxCodeLen {
		w.writeBits(uint64(c.bits)<<n|low, uint(c.len)+n)
		return
	}
	w.writeBits(uint64(c.bits), uint(c.len))
	if n > 32 {
		w.writeBits(low>>32, n-32)
		low, n = low&(1<<32-1), 32
	}
	w.writeBits(low, n)
}

// codeLengths returns optimal prefix-code lengths for symbols with the given
// non-zero counts, none longer than limit (at most MaxCodeLen, and room for
// every symbol). One symbol gets length 0.
func codeLengths(counts []uint64, limit int) []uint8 {
	n := len(counts)
	lens := make([]uint8, n)
	if n < 2 {
		return lens
	}
	// Ascending by count, ties by symbol, so the result depends on nothing
	// but the counts. The symbol's index rides in the low bits of the sort
	// key: there are at most MaxSymbols of them, and no count in memory comes
	// near 1<<(64-MaxCodeLen).
	a := make([]uint64, n)
	for i, c := range counts {
		a[i] = c<<MaxCodeLen | uint64(i)
	}
	slices.Sort(a)
	order := make([]uint16, n)
	for i, key := range a {
		order[i], a[i] = uint16(key&(MaxSymbols-1)), key>>MaxCodeLen
	}
	// Moffat and Katajainen's in-place minimum-redundancy lengths: a holds
	// the sorted counts, then parent indexes, then depths.
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || a[root] < a[leaf] {
			a[next], a[root] = a[root], uint64(next)
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || (root < next && a[root] < a[leaf]) {
			a[next] += a[root]
			a[root] = uint64(next)
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	avail, used, depth := 1, 0, uint64(0)
	root, next := n-2, n-1
	for avail > 0 {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		for avail > used {
			a[next] = depth
			next--
			avail--
		}
		avail, used = 2*used, 0
		depth++
	}
	// Count the codes of each length, folding those beyond the limit into it,
	// then restore the Kraft sum by lengthening the cheapest shorter codes
	// (the rule deflate encoders use).
	var perLen [MaxCodeLen + 1]int
	for _, d := range a {
		perLen[min(d, uint64(limit))]++
	}
	kraft := 0
	for l := 1; l <= limit; l++ {
		kraft += perLen[l] << (limit - l)
	}
	for ; kraft > 1<<limit; kraft-- {
		perLen[limit]--
		for l := limit - 1; l > 0; l-- {
			if perLen[l] > 0 {
				perLen[l]--
				perLen[l+1] += 2
				break
			}
		}
	}
	// The rarest symbols take the longest codes.
	i := 0
	for l := limit; l > 0; l-- {
		for k := 0; k < perLen[l]; k++ {
			lens[order[i]] = uint8(l)
			i++
		}
	}
	return lens
}

// canonicalCodes assigns the codes of a table with these lengths: shorter
// codes first, symbols of one length in table order. A zero length takes no
// code space.
func canonicalCodes(lens []uint8) []uint16 {
	var count, next [MaxCodeLen + 1]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l <= MaxCodeLen; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	codes := make([]uint16, len(lens))
	for i, l := range lens {
		if l != 0 {
			codes[i] = next[l]
			next[l]++
		}
	}
	return codes
}

// RunWriter appends runs of coded items, each after the bytes it was started
// on: bit runs or, with rans, rANS runs, whose items go through one rANS
// state up to EndRANS and are bits after it. Its buffers are kept from one
// run to the next.
type RunWriter struct {
	buf   []byte
	start int      // len(buf) when the run began
	acc   uint64   // bits: the low n bits are pending
	n     uint     // < 32
	kind  bool     // rANS runs
	rans  bool     // in the run's rANS part
	ops   []uint32 // the rANS part: the slots of every item, in order
	out   []byte   // the bytes the state sheds, in the order it sheds them
}

// NewRunWriter returns a writer of bit runs or, with rans, of rANS runs.
func NewRunWriter(rans bool) RunWriter { return RunWriter{kind: rans} }

// Start begins a run at the end of dst.
func (w *RunWriter) Start(dst []byte) {
	w.buf, w.start, w.acc, w.n, w.rans, w.ops = dst, len(dst), 0, 0, w.kind, w.ops[:0]
}

// EndRANS ends the rANS part of an rANS run: its items are coded and the
// state stored, and what the run holds after them is bits. On a bit run it
// does nothing.
func (w *RunWriter) EndRANS() {
	if w.rans {
		w.codeRANS()
		w.rans = false
	}
}

// writeBits appends the low n <= 32 bits of v, which must have no others set.
func (w *RunWriter) writeBits(v uint64, n uint) {
	w.acc = w.acc<<n | v
	if w.n += n; w.n >= 32 {
		w.n -= 32
		w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(w.acc>>w.n))
	}
}

// EndRun ends a run of the given number of items: its rANS part ends, its
// last byte is padded with zero bits, and the run with zero bytes up to
// items/MaxItemsPerByte. It returns the bytes the run was started on with the
// run appended.
func (w *RunWriter) EndRun(items int) []byte {
	w.EndRANS()
	if pad := -w.n & 7; pad != 0 {
		w.acc <<= pad
		w.n += pad
	}
	for w.n > 0 {
		w.n -= 8
		w.buf = append(w.buf, byte(w.acc>>w.n))
	}
	for len(w.buf)-w.start < runBytes(items) {
		w.buf = append(w.buf, 0)
	}
	return w.buf
}

// codeRANS codes the rANS part's items back to front, from the state's
// initial value, and appends the state it ends in and then the bytes it shed,
// last first: the order a decoder going front to back wants them in.
func (w *RunWriter) codeRANS() {
	x, out := uint32(ransLow), w.out[:0]
	for i := len(w.ops) - 1; i >= 0; i-- {
		op := w.ops[i]
		start, freq, scale := op&0xfff, op>>12&0x1fff, op>>25
		for limit := uint32(ransLow) >> scale << 8 * freq; x >= limit; x >>= 8 {
			out = append(out, byte(x))
		}
		if freq&(freq-1) == 0 {
			x = x>>bits.TrailingZeros32(freq)<<scale + x&(freq-1) + start
		} else {
			x = x/freq<<scale + x%freq + start
		}
	}
	w.buf = binary.BigEndian.AppendUint32(w.buf, x)
	for i := len(out) - 1; i >= 0; i-- {
		w.buf = append(w.buf, out[i])
	}
	w.out = out
}

// runBytes is the least a run of n items occupies.
func runBytes(n int) int { return (n + MaxItemsPerByte - 1) / MaxItemsPerByte }

// RunReader reads what a RunWriter wrote. Reading past the end yields zero
// bits and is reported when the run ends (Cursor.EndRun), so a decoder's
// per-item path carries no error.
type RunReader struct {
	b   []byte
	pos int // next byte of b to load
	// The unread bits, from the top, and how many of them are counted;
	// negative once past the end.
	buf uint64
	n   int
	// In an rANS run's rANS part: the state.
	x    uint64
	rans bool
}

func (r *RunReader) refill() {
	if r.pos+8 <= len(r.b) {
		// Bits below the counted ones are loaded early and loaded again, to
		// the same positions, by the next refill.
		r.buf |= binary.BigEndian.Uint64(r.b[r.pos:]) >> uint(r.n)
		adv := (63 - r.n) >> 3
		r.pos += adv
		r.n += adv * 8
		return
	}
	for r.n <= 56 && r.pos < len(r.b) {
		r.buf |= uint64(r.b[r.pos]) << uint(56-r.n)
		r.pos++
		r.n += 8
	}
}

func (r *RunReader) skip(n uint) {
	r.buf <<= n
	r.n -= int(n)
}

// used is the number of bytes the run has read so far, its rANS part ended.
func (r *RunReader) used() int { return (r.pos*8 - r.n + 7) >> 3 }

// next is the run's next byte, zero past its end.
func (r *RunReader) next() uint64 {
	if r.pos < len(r.b) {
		return uint64(r.b[r.pos])
	}
	return 0
}

// feed gives the rANS state x a byte when it is below ransLow, without a
// branch on whether it is: after a decode step that is as likely as not.
func (r *RunReader) feed(x uint64) uint64 {
	need := (x - ransLow) >> 63 // 1 below ransLow: x < 1<<31
	b := r.next()
	r.pos += int(need)
	return x<<(need*8&31) | b&-need
}

// renorm feeds the rANS state bytes until it is back at ransLow or above; a
// decode step leaves it above ransLow>>MaxCodeLen, so two bytes do. How many
// it takes is two comparisons of the state as it is, not one after the
// other.
func (r *RunReader) renorm(x uint64) uint64 {
	n := (x-ransLow)>>63 + (x-ransLow>>8)>>63
	var two uint64
	if r.pos+2 <= len(r.b) {
		two = uint64(binary.BigEndian.Uint16(r.b[r.pos:]))
	} else {
		two = r.lastTwo()
	}
	r.pos += int(n)
	return x<<(8*n&31) | two>>(16-8*n&31)
}

// lastTwo is the next two bytes of a run at its end, zeros past it.
//
//go:noinline
func (r *RunReader) lastTwo() uint64 {
	two := r.next() << 8
	if r.pos+1 < len(r.b) {
		two |= uint64(r.b[r.pos+1])
	}
	return two
}

// low reads n low bits behind a class symbol from the state x, coded as
// uniform rANS symbols: the first n%chunkBits bits, then whole bytes, each of
// which is one byte of the state swapped for the run's next.
func (r *RunReader) low(x uint64, n uint) (uint64, uint64) {
	v := uint64(0)
	if k := n % chunkBits; k != 0 {
		v, x = x&(1<<k-1), r.feed(x>>(k&7))
	}
	for ; n >= chunkBits; n -= chunkBits {
		v = v<<chunkBits | x&0xff
		x = x&^0xff | r.next()
		r.pos++
	}
	return v, x
}

// Run starts reading a run of the given number of coded items at the cursor,
// a bit run or with rans an rANS run, having checked that the bytes that
// remain can hold that many and, for an rANS run, that its stored state is
// one an encoder ends in. The cursor does not move until EndRun.
func (c *Cursor) Run(what string, items int, rans bool) (RunReader, error) {
	if items < 0 || runBytes(items) > len(c.b) {
		return RunReader{}, c.tooMany(what, uint64(items))
	}
	if !rans {
		return RunReader{b: c.b}, nil
	}
	if len(c.b) < RANSFlush {
		return RunReader{}, c.Errorf("truncated %s rANS state", what)
	}
	x := uint64(binary.BigEndian.Uint32(c.b))
	if x < ransLow || x >= ransLow<<8 {
		return RunReader{}, c.Errorf("%s rANS state %#x out of range", what, x)
	}
	return RunReader{b: c.b, pos: RANSFlush, x: x, rans: true}, nil
}

// EndRANS ends the rANS part of the rANS run r reads, which must have read no
// byte past the cursor's and brought its state back to where every run
// starts; what the run holds after it is bits. On a bit run it does nothing.
func (c *Cursor) EndRANS(what string, r *RunReader) error {
	if !r.rans {
		return nil
	}
	if r.pos > len(c.b) || r.x != ransLow {
		return c.Errorf("%s: rANS part ends in state %#x having read %d of %d bytes", what, r.x, r.pos, len(c.b))
	}
	r.rans = false
	return nil
}

// EndRun consumes the run r read, its rANS part ended: the bytes it read, and
// no fewer than a run of that many items occupies.
func (c *Cursor) EndRun(what string, r *RunReader, items int) error {
	if err := c.EndRANS(what, r); err != nil {
		return err
	}
	_, err := c.Bytes(what, max(r.used(), runBytes(items)))
	return err
}

// symbol is one decoded table entry: the value, or the smallest value of the
// class and how many low bits follow the code, and its slots [start,
// start+freq) of the table's 1<<bits.
type symbol struct {
	base        uint64
	extra       uint8
	len         uint8 // of its code; 0 in an rANS-shaped table
	start, freq uint16
}

// Decoder reads the values of one column.
type Decoder struct {
	mode  byte
	empty bool
	bits  uint // the longest code or the scale: the lookup index width
	// The lookup, 1<<bits entries, nil until built and for a table a
	// ContextDecoder's chain holds. Of a Huffman-shaped table: the symbol
	// index<<4 | code length. Of an rANS-shaped one: its frequency-1<<20 |
	// (slot - its first slot)<<8 | symbol index.
	table []uint16
	slots []uint32
	syms  []symbol
}

// ReadDecoder parses a stored table whose column holds values up to most.
func (c *Cursor) ReadDecoder(what string, most uint64) (*Decoder, error) {
	d, err := c.readTable(what, most)
	if err != nil {
		return nil, err
	}
	d.build()
	return d, nil
}

// readTable parses a stored table whose column holds values up to most; its
// lookup is not built yet.
func (c *Cursor) readTable(what string, most uint64) (*Decoder, error) {
	mode, err := c.Bytes(what+" table mode", 1)
	if err != nil {
		return nil, err
	}
	if mode[0] > modeRANSClass {
		return nil, c.Errorf("%s table mode %d", what, mode[0])
	}
	d := &Decoder{mode: mode[0]}
	rans := d.RANS()
	if rans {
		scale, err := c.Bytes(what+" table scale", 1)
		if err != nil {
			return nil, err
		}
		if d.bits = uint(scale[0]); d.bits < 1 || d.bits > MaxCodeLen {
			return nil, c.Errorf("%s table scale %d", what, d.bits)
		}
	}
	limit := most
	if d.mode&modeClass != 0 {
		limit = uint64(bits.Len64(most))
	}
	n, err := c.Count(what+" table size", MaxSymbols, 1)
	if err != nil {
		return nil, err
	}
	if rans && n > maxRANSSymbols {
		return nil, c.Errorf("%s rANS table of %d symbols", what, n)
	}
	d.empty = n == 0
	d.syms = make([]symbol, max(n, 1)) // an empty table decodes zeros
	d.syms[0].freq = 1
	lens := make([]uint8, n)
	sum, sym, entry := 0, uint64(0), what+" table entry"
	for i := range lens {
		x, err := c.Uvarint(entry)
		if err != nil {
			return nil, err
		}
		delta, l := x>>4, uint(x&15)
		if rans {
			delta, l = x>>d.bits, 0
			f := int(x&(1<<d.bits-1)) + 1
			sum += f
			d.syms[i].freq = uint16(f)
		}
		if i > 0 && delta == 0 || delta > limit-sym {
			return nil, c.Errorf("%s table symbol %d out of order or above %d", what, i, limit)
		}
		sym += delta
		switch {
		case rans:
		case n == 1 && l != 0, n > 1 && (l == 0 || l > MaxCodeLen):
			return nil, c.Errorf("%s table gives symbol %d a %d-bit code", what, sym, l)
		case n > 1:
			sum += 1 << (MaxCodeLen - l)
		}
		lens[i] = uint8(l)
		d.bits = max(d.bits, l)
		s := &d.syms[i]
		s.base, s.len = sym, uint8(l)
		if d.mode&modeClass != 0 && sym > 1 {
			s.base, s.extra = 1<<(sym-1), uint8(sym-1)
		}
	}
	switch {
	case rans && sum != 1<<d.bits:
		return nil, c.Errorf("%s table frequencies sum to %d, not %d", what, sum, 1<<d.bits)
	case rans:
		start := uint16(0)
		for i := range lens {
			d.syms[i].start = start
			start += d.syms[i].freq
		}
	case n > 1 && sum != 1<<MaxCodeLen:
		return nil, c.Errorf("%s table is not a complete prefix code", what)
	default:
		for i, code := range canonicalCodes(lens) {
			shift := d.bits - uint(lens[i])
			d.syms[i].start, d.syms[i].freq = code<<shift, 1<<shift
		}
	}
	return d, nil
}

// build makes the lookup: every slot of a symbol names it and, in an
// rANS-shaped table, how the state moves on from it.
func (d *Decoder) build() {
	if d.RANS() {
		d.slots = make([]uint32, 1<<d.bits)
	} else {
		d.table = make([]uint16, 1<<d.bits)
	}
	for i, s := range d.syms {
		for j := uint32(0); j < uint32(s.freq); j++ {
			if d.RANS() {
				d.slots[uint32(s.start)+j] = uint32(s.freq-1)<<20 | j<<8 | uint32(i)
			} else {
				d.table[uint32(s.start)+j] = uint16(i<<4) | uint16(s.len)
			}
		}
	}
}

// lookup is the size of the lookup build makes.
func (d *Decoder) lookup() int {
	if d.RANS() {
		return 4 << d.bits
	}
	return 2 << d.bits
}

// Empty reports a table with no symbols, which a column with no values has.
// Next on it returns zeros without reading.
func (d *Decoder) Empty() bool { return d.empty }

// RANS reports an rANS-shaped table, whose values only an rANS run holds.
func (d *Decoder) RANS() bool { return d.mode&modeRANS != 0 }

// Mode names how the column is coded: "huffman" over its values, "class"
// over their bit lengths with the low bits raw, "rans" by frequencies over
// either, "none" when it has at most one symbol and costs no bits.
func (d *Decoder) Mode() string {
	switch {
	case len(d.syms) == 1:
		return "none"
	case d.RANS():
		return "rans"
	case d.mode&modeClass != 0:
		return "class"
	}
	return "huffman"
}

// Cost is the number of bits Next reads for the value v — under the table's
// frequency for v and the low bits behind it — or -1 when the table has no
// code for it.
func (d *Decoder) Cost(v uint64) float64 {
	// The last symbol at or below v.
	i := sort.Search(len(d.syms), func(i int) bool { return d.syms[i].base > v }) - 1
	if i < 0 || d.empty {
		return -1
	}
	s := d.syms[i]
	if (v-s.base)>>s.extra != 0 {
		return -1
	}
	return float64(d.bits) - math.Log2(float64(s.freq)) + float64(s.extra)
}

// Next reads one value.
func (d *Decoder) Next(r *RunReader) uint64 {
	if r.rans {
		// The state's next value comes from the lookup entry alone: an rANS
		// entry holds it, a Huffman code's slots are 1<<(bits-length) of them
		// from the code on.
		x, bits := r.x, d.bits&15
		slot := x & (1<<bits - 1)
		var s *symbol
		if d.slots != nil {
			e := d.slots[slot]
			x, s = uint64(e>>20+1)*(x>>bits)+uint64(e>>8&0xfff), &d.syms[e&0xff]
		} else {
			e := d.table[slot]
			w := (bits - uint(e&15)) & 15
			x, s = x>>bits<<w|slot&(1<<w-1), &d.syms[e>>4]
		}
		v := s.base
		if x = r.renorm(x); s.extra != 0 {
			var low uint64
			low, x = r.low(x, uint(s.extra))
			v += low
		}
		r.x = x
		return v
	}
	if r.n < MaxCodeLen {
		r.refill()
	}
	e := d.table[r.buf>>(64-d.bits)]
	r.skip(uint(e & 15))
	s := &d.syms[e>>4]
	if s.extra == 0 {
		return s.base
	}
	// The low bits, at most 63 of them; a refill leaves at least 57.
	x, v := uint(s.extra), uint64(0)
	if x > 32 {
		r.refill()
		v = r.buf >> (96 - x) << 32
		r.skip(x - 32)
		x = 32
	}
	if r.n < 32 {
		r.refill()
	}
	v |= r.buf >> (64 - x)
	r.skip(x)
	return s.base + v
}

// ContextHistogram counts a column coded under a context, one Histogram per
// context that holds values.
type ContextHistogram struct {
	h []*Histogram
}

// NewContextHistogram counts a column of the given number of contexts (at most
// ChainContexts).
func NewContextHistogram(contexts int) *ContextHistogram {
	if contexts < 1 || contexts > ChainContexts {
		panic("wire: context count out of range")
	}
	return &ContextHistogram{h: make([]*Histogram, contexts)}
}

// Add counts one occurrence of v under context ctx.
func (h *ContextHistogram) Add(ctx int, v uint64) { h.of(ctx).Add(v) }

// AddChain counts every byte of b under the one before it, as PutChain writes
// them.
func (h *ContextHistogram) AddChain(b []byte) {
	ctx := 0
	for _, v := range b {
		h.of(ctx).small[v]++
		ctx = int(v) + 1
	}
}

// of returns the histogram of context ctx.
func (h *ContextHistogram) of(ctx int) *Histogram {
	if hc := h.h[ctx]; hc != nil {
		return hc
	}
	return h.first(ctx)
}

// first makes the histogram of context ctx on its first value.
//
//go:noinline
func (h *ContextHistogram) first(ctx int) *Histogram {
	h.h[ctx] = new(Histogram)
	return h.h[ctx]
}

// ContextEncoder writes the values of the context column it was built from.
type ContextEncoder struct {
	encs []*Encoder // by context; nil where the context holds no values
}

// Encoder builds a table for every context that holds values, each the
// cheapest of the two Huffman shapes or with rans of all four, then shortens
// the longest codes and lowers the largest scales until the decoder's lookups
// fit MaxContextLookup: the table with the largest lookup (the first of them
// by context) is rebuilt a bit narrower, again and again. Any table wider
// than minLimit bits can narrow, an rANS table at minLimit can become a
// Huffman one, and every Huffman table at minLimit fits, so the loop ends.
func (h *ContextHistogram) Encoder(rans bool) *ContextEncoder {
	e := &ContextEncoder{encs: make([]*Encoder, len(h.h))}
	total := 0
	for ctx, hc := range h.h {
		if hc != nil {
			e.encs[ctx] = hc.Encoder(rans)
			total += e.encs[ctx].lookup()
		}
	}
	for total > MaxContextLookup {
		largest := -1
		for ctx, enc := range e.encs {
			if enc != nil && (largest < 0 || enc.lookup() > e.encs[largest].lookup()) {
				largest = ctx
			}
		}
		// A bit narrower or, at minLimit, Huffman-shaped: half the lookup of
		// an rANS table as wide.
		wide := e.encs[largest]
		narrower := h.h[largest].encoder(max(int(wide.bits)-1, minLimit), rans && int(wide.bits) > minLimit)
		total += narrower.lookup() - wide.lookup()
		e.encs[largest] = narrower
	}
	return e
}

// RANS reports a column with an rANS-shaped table.
func (e *ContextEncoder) RANS() bool {
	return slices.ContainsFunc(e.encs, func(enc *Encoder) bool { return enc != nil && enc.rans() })
}

// AppendTables appends the stored form of the tables.
func (e *ContextEncoder) AppendTables(dst []byte) []byte {
	n := 0
	for _, enc := range e.encs {
		if enc != nil {
			n++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	prev := 0
	for ctx, enc := range e.encs {
		if enc != nil {
			dst = enc.AppendTable(binary.AppendUvarint(dst, uint64(ctx-prev)))
			prev = ctx
		}
	}
	return dst
}

// For returns the encoder of context ctx, which must hold values.
func (e *ContextEncoder) For(ctx int) *Encoder { return e.encs[ctx] }

// PutChain writes every byte of b under the one before it: the first under
// context 0, each next under the previous value plus one. The encoder must
// have ChainContexts contexts.
func (e *ContextEncoder) PutChain(w *RunWriter, b []byte) {
	ctx := 0
	for _, v := range b {
		switch enc := e.encs[ctx]; {
		case enc.mode&modeClass != 0:
			enc.putClass(w, uint64(v))
		case w.rans:
			w.ops = append(w.ops, enc.codes[v].slots)
		default:
			c := enc.codes[v]
			w.writeBits(uint64(c.bits), uint(c.len))
		}
		ctx = int(v) + 1
	}
}

// ContextDecoder reads the values of a context column.
type ContextDecoder struct {
	decs   []*Decoder // by context; nil where the context has no table
	tables []*Decoder // the distinct tables, ascending by context
	// For Chain, in a column of ChainContexts contexts: the lookups of the
	// direct tables side by side, and at, the place of each context's. For
	// bit runs an entry is the value<<4 | code length and, in bits 12 to 31,
	// the place of the context the value leads to; for rANS runs (rans) the
	// value | (slot - the symbol's first slot)<<8 | (frequency-1)<<20.
	chain []uint32
	at    []uint32
	rans  bool
}

// A context's place in ContextDecoder.chain: the offset of its lookup<<16 |
// its width<<12, or chainSlow when its values go through its Decoder — a
// class table, or none.
const chainSlow = 15 << 12

// The offsets of a chain fit 16 bits: the lookups of one column hold no more
// entries than that.
const _ = uint(1<<16 - MaxContextLookup/2)

// ReadContexts parses the stored tables of a column of the given number of
// contexts (at most ChainContexts) whose values go up to most. It refuses a
// table with no symbols — a context without values has no table — and tables
// whose lookups together would take more than MaxContextLookup bytes, before
// anything is built from them: Build does that, once the caller knows which
// kind of run the column is read from.
func (c *Cursor) ReadContexts(what string, contexts int, most uint64) (*ContextDecoder, error) {
	// A table is at least its context delta, mode and symbol count.
	n, err := c.Count(what+" table count", uint64(contexts), 3)
	if err != nil {
		return nil, err
	}
	cd := &ContextDecoder{decs: make([]*Decoder, contexts), tables: make([]*Decoder, n)}
	size, ctx := 0, uint64(0)
	for i := range cd.tables {
		delta, err := c.Uvarint(what + " table context")
		if err != nil {
			return nil, err
		}
		if i > 0 && delta == 0 || delta > uint64(contexts-1)-ctx {
			return nil, c.Errorf("%s table %d: context out of order or above %d", what, i, contexts-1)
		}
		ctx += delta
		d, err := c.readTable(what, most)
		if err != nil {
			return nil, fmt.Errorf("context %d: %w", ctx, err)
		}
		if d.empty {
			return nil, c.Errorf("%s context %d has an empty table", what, ctx)
		}
		if size += d.lookup(); size > MaxContextLookup {
			return nil, c.Errorf("%s tables ask for more than %d lookup bytes", what, MaxContextLookup)
		}
		cd.decs[ctx], cd.tables[i] = d, d
	}
	return cd, nil
}

// SharedContexts returns a column of the given number of contexts written
// with the one table d: every context decodes through it or, when d is empty,
// none does. Like ReadContexts, it wants a Build.
func SharedContexts(d *Decoder, contexts int) *ContextDecoder {
	cd := &ContextDecoder{decs: make([]*Decoder, contexts), tables: []*Decoder{d}}
	if !d.Empty() {
		for i := range cd.decs {
			cd.decs[i] = d
		}
	}
	return cd
}

// Build readies the column for runs of the given kind: in a column of
// ChainContexts contexts the chain over its direct tables of byte values,
// whose lookups are not built at all, and a lookup for every other table.
// Together they take at most 2*MaxContextLookup bytes.
func (cd *ContextDecoder) Build(rans bool) {
	chained := func(d *Decoder) bool {
		return len(cd.decs) == ChainContexts && d.mode&modeClass == 0 && d.syms[len(d.syms)-1].base <= math.MaxUint8
	}
	for _, d := range cd.tables {
		if d.table == nil && d.slots == nil && !chained(d) {
			d.build()
		}
	}
	if len(cd.decs) != ChainContexts {
		return
	}
	cd.rans, cd.at = rans, make([]uint32, ChainContexts)
	size := 0
	for ctx, d := range cd.decs {
		switch {
		case ctx > 0 && d == cd.decs[ctx-1]:
			cd.at[ctx] = cd.at[ctx-1]
		case d == nil || !chained(d):
			cd.at[ctx] = chainSlow
		default:
			cd.at[ctx] = uint32(size)<<16 | uint32(d.bits)<<12
			size += 1 << d.bits
		}
	}
	cd.chain = make([]uint32, size)
	for ctx, d := range cd.decs {
		a := cd.at[ctx]
		if a == chainSlow || ctx > 0 && d == cd.decs[ctx-1] {
			continue
		}
		lookup := cd.chain[a>>16:]
		for _, s := range d.syms {
			v := uint32(s.base)
			for j := uint32(0); j < uint32(s.freq); j++ {
				if rans {
					lookup[uint32(s.start)+j] = v | j<<8 | uint32(s.freq-1)<<20
				} else {
					lookup[uint32(s.start)+j] = v<<4 | uint32(s.len) | cd.at[v+1]
				}
			}
		}
	}
}

// For returns the decoder of context ctx, nil when the context has no table.
// Its Next needs a lookup, which a table the column's chain holds has not.
func (cd *ContextDecoder) For(ctx int) *Decoder { return cd.decs[ctx] }

// Tables is the number of tables the column carries.
func (cd *ContextDecoder) Tables() int { return len(cd.tables) }

// RANS reports a column with an rANS-shaped table.
func (cd *ContextDecoder) RANS() bool { return slices.ContainsFunc(cd.tables, (*Decoder).RANS) }

// Mode names how the column is coded: the Mode its tables share, "mixed"
// when they differ, "none" when it has no tables.
func (cd *ContextDecoder) Mode() string {
	mode := "none"
	for i, d := range cd.tables {
		if m := d.Mode(); i == 0 {
			mode = m
		} else if m != mode {
			return "mixed"
		}
	}
	return mode
}

// Chain reads len(dst) bytes each coded under the one before it, as PutChain
// wrote them, from a column of ChainContexts contexts whose values fit a
// byte, built for the kind of run r is. It reports false, having read part of
// the run, when a value's context has no table. A value of a direct table
// costs one lookup, in the chain, which also says where the next value's
// lookup is; any other goes through its context's Decoder. (Picking each
// value's Decoder, then its lookup entry, then its symbol puts three
// dependent loads between one value and the next; on long bulk transfers that
// decoded a third slower.)
func (cd *ContextDecoder) Chain(r *RunReader, dst []byte) bool {
	if cd.rans {
		return cd.chainRANS(r, dst)
	}
	chain, at, br := cd.chain, cd.at[:ChainContexts], *r
	next := at[0]
	for i := 0; i < len(dst); {
		// A refill leaves at least 57 bits: four codes of at most 12.
		br.refill()
		for end := min(i+4, len(dst)); i < end; i++ {
			if next == chainSlow {
				ctx := 0
				if i > 0 {
					ctx = int(dst[i-1]) + 1
				}
				d := cd.decs[ctx]
				if d == nil {
					*r = br
					return false
				}
				v := byte(d.Next(&br)) // which refills as it needs
				dst[i], next = v, at[int(v)+1]
				i++
				break
			}
			e := chain[next>>16+uint32(br.buf>>(64-next>>12&15))]
			br.skip(uint(e & 15))
			dst[i], next = byte(e>>4), e&^0xfff
		}
	}
	*r = br
	return true
}

// chainRANS is Chain for an rANS run: a direct table's value takes one
// lookup, whose entry gives the state's next value, and the place of the
// next value's lookup, read in parallel. The values of a skewed context cost
// next to no bits, so the state seldom wants a byte: a branch, not a feed.
func (cd *ContextDecoder) chainRANS(r *RunReader, dst []byte) bool {
	chain, at, br := cd.chain, cd.at[:ChainContexts], *r
	x, place := br.x, at[0]
	for i := range dst {
		if place == chainSlow {
			ctx := 0
			if i > 0 {
				ctx = int(dst[i-1]) + 1
			}
			d := cd.decs[ctx]
			if d == nil {
				br.x = x
				*r = br
				return false
			}
			br.x = x
			v := byte(d.Next(&br))
			x, dst[i], place = br.x, v, at[int(v)+1]
			continue
		}
		w := place >> 12 & 15
		slot := uint32(x) & (1<<w - 1)
		x >>= w
		e := chain[place>>16+slot]
		if x = uint64(e>>20+1)*x + uint64(e>>8&0xfff); x < ransLow {
			x = br.renorm(x)
		}
		dst[i], place = byte(e), at[e&0xff+1]
	}
	br.x = x
	*r = br
	return true
}
