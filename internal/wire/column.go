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
// one table from the counts (Encoder) and then writes each value as a
// canonical Huffman code of at most MaxCodeLen bits, most significant bit
// first. The table is one of two shapes, whichever makes table plus codes
// smaller on the column's own counts:
//
//	mode 0, direct: the symbols are the column's values
//	mode 1, class:  the symbols are bit lengths; a value of bit length c > 1
//	                is its class's code followed by its c-1 low bits
//
// and is stored as
//
//	byte mode
//	uvarint #symbols (at most MaxSymbols)
//	per symbol, ascending: uvarint (symbol - previous symbol)<<4 | code length
//
// A table of one symbol gives it length 0: the column costs no bits. Any
// other table must be a complete prefix code (Kraft sum exactly one), which is
// what lets a decoder resolve every code with one lookup and no validity
// check. Because an item may cost zero bits, a run of n items is padded to at
// least n/MaxItemsPerByte bytes and a decoder refuses a count its run cannot
// hold (Cursor.Bits), so nothing is sized beyond a constant multiple of the
// input.
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
// context has no table does not decode. A decoder's lookup takes 2<<bits
// bytes for a table whose longest code is bits long, and a table of 12-bit
// codes is stored in a dozen bytes, so the lookups are what the input does
// not bound: the tables of one context column together may ask for at most
// MaxContextLookup bytes of them. A decoder refuses more before it builds
// any; an encoder shortens its longest codes, largest lookup first, until its
// tables fit.

const (
	// MaxCodeLen is the longest code a table may assign: a decoder's lookup
	// table has at most 1<<MaxCodeLen entries.
	MaxCodeLen = 12
	// MaxSymbols is the largest alphabet of one table.
	MaxSymbols = 1 << MaxCodeLen
	// MaxItemsPerByte is the densest a run of coded items is ever packed.
	MaxItemsPerByte = 8

	// ChainContexts is the number of contexts of a column of bytes each coded
	// under the one before it (ContextEncoder.PutChain, ContextDecoder.Chain):
	// context 0 for the first, v+1 after a v. No column has more.
	ChainContexts = 257
	// MaxContextLookup is the most lookup bytes the tables of one context
	// column may ask for together.
	MaxContextLookup = 128 << 10

	modeDirect = 0
	modeClass  = 1

	// directLimit bounds the values a direct table built here may name: the
	// counting pass indexes a dense array by value. The columns worth a
	// direct table are indexes (templates, addresses), which are dense.
	directLimit = 4 * MaxSymbols

	// minLimit is the shortest code limit an encoder shortens a context table
	// to: a class table, of at most 65 symbols, always fits it.
	minLimit = 7
)

// A context column's tables can always be shortened to fit the budget: every
// table at minLimit bits, in every context, asks for no more than it.
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

// code is one symbol's canonical code.
type code struct {
	bits uint16
	len  uint8
}

// Encoder writes the values of the column it was built from.
type Encoder struct {
	classed bool
	bits    uint8    // the longest code
	syms    []uint64 // the table: symbols ascending
	lens    []uint8  // and their code lengths
	codes   []code   // indexed by value (direct, at least 256 long) or by bit length (class)
}

// Encoder builds the cheaper of the two tables for the values counted so far.
func (h *Histogram) Encoder() *Encoder { return h.encoder(MaxCodeLen) }

// encoder builds the cheaper of the two tables with codes of at most limit
// (>= minLimit) bits; a direct table of more than 1<<limit symbols is not a
// candidate.
func (h *Histogram) encoder(limit int) *Encoder {
	classes, distinct := h.classes, h.distinct
	for v, n := range h.small {
		classes[bits.Len64(uint64(v))] += n
		if n != 0 {
			distinct++
		}
	}
	class := newEncoder(true, classes[:], limit)
	if h.wide || distinct > 1<<limit {
		return class
	}
	values := make([]uint64, max(len(h.small), len(h.large)))
	copy(values, h.large)
	copy(values, h.small[:])
	direct := newEncoder(false, values, limit)
	if direct.cost(values) <= class.cost(classes[:]) {
		return direct
	}
	return class
}

// newEncoder builds the table over the symbols with a non-zero count.
func newEncoder(classed bool, counts []uint64, limit int) *Encoder {
	e := &Encoder{classed: classed, codes: make([]code, len(counts))}
	var present []uint64
	for s, n := range counts {
		if n != 0 {
			e.syms = append(e.syms, uint64(s))
			present = append(present, n)
		}
	}
	e.lens = codeLengths(present, limit)
	for i, c := range canonicalCodes(e.lens) {
		e.codes[e.syms[i]] = code{bits: c, len: e.lens[i]}
		e.bits = max(e.bits, e.lens[i])
	}
	return e
}

// lookup is the size of the lookup a decoder builds for the table.
func (e *Encoder) lookup() int { return 2 << e.bits }

// cost is the table's size plus the code and mantissa bits of a column with
// these counts, in bits.
func (e *Encoder) cost(counts []uint64) uint64 {
	total := uint64(len(e.AppendTable(nil))) * 8
	for i, s := range e.syms {
		per := uint64(e.lens[i])
		if e.classed && s > 1 {
			per += s - 1
		}
		total += counts[s] * per
	}
	return total
}

// AppendTable appends the stored form of the table.
func (e *Encoder) AppendTable(dst []byte) []byte {
	mode := byte(modeDirect)
	if e.classed {
		mode = modeClass
	}
	dst = append(dst, mode)
	dst = binary.AppendUvarint(dst, uint64(len(e.syms)))
	prev := uint64(0)
	for i, s := range e.syms {
		dst = binary.AppendUvarint(dst, (s-prev)<<4|uint64(e.lens[i]))
		prev = s
	}
	return dst
}

// Put writes v, which must be one of the values the histogram counted.
func (e *Encoder) Put(w *BitWriter, v uint64) {
	if e.classed {
		e.putClass(w, v)
		return
	}
	c := e.codes[v]
	w.WriteBits(uint64(c.bits), uint(c.len))
}

func (e *Encoder) putClass(w *BitWriter, v uint64) {
	n := uint(bits.Len64(v))
	c := e.codes[n]
	if n > 1 {
		n-- // the low bits that follow the code
	} else {
		n = 0
	}
	low := v &^ (1 << n)
	if n <= 32-MaxCodeLen {
		w.WriteBits(uint64(c.bits)<<n|low, uint(c.len)+n)
		return
	}
	w.WriteBits(uint64(c.bits), uint(c.len))
	if n > 32 {
		w.WriteBits(low>>32, n-32)
		low, n = low&(1<<32-1), 32
	}
	w.WriteBits(low, n)
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

// BitWriter appends bits, most significant first, after the bytes it was
// started on.
type BitWriter struct {
	buf   []byte
	start int    // len(buf) when the run began
	acc   uint64 // the low n bits are pending
	n     uint   // < 32
}

// NewBitWriter starts a run of coded items at the end of dst.
func NewBitWriter(dst []byte) BitWriter { return BitWriter{buf: dst, start: len(dst)} }

// WriteBits appends the low n <= 32 bits of v, which must have no others set.
func (w *BitWriter) WriteBits(v uint64, n uint) {
	w.acc = w.acc<<n | v
	if w.n += n; w.n >= 32 {
		w.n -= 32
		w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(w.acc>>w.n))
	}
}

// EndRun ends a run of the given number of items: the last byte is padded
// with zero bits, and the run with zero bytes up to items/MaxItemsPerByte. It
// returns the bytes the writer was started on with the run appended.
func (w *BitWriter) EndRun(items int) []byte {
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

// runBytes is the least a run of n items occupies.
func runBytes(n int) int { return (n + MaxItemsPerByte - 1) / MaxItemsPerByte }

// BitReader reads what a BitWriter wrote. Reading past the end yields zero
// bits and is reported when the run ends (Cursor.EndBits), so a decoder's
// per-item path carries no error.
type BitReader struct {
	b   []byte
	pos int    // next byte of b to load
	buf uint64 // unread bits, from the top
	n   int    // how many of them are counted; negative once past the end
}

func (r *BitReader) refill() {
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

func (r *BitReader) skip(n uint) {
	r.buf <<= n
	r.n -= int(n)
}

// used is the number of bytes the bits read so far reach into.
func (r *BitReader) used() int { return (r.pos*8 - r.n + 7) >> 3 }

// Bits starts reading a run of the given number of coded items at the
// cursor, having checked that the bytes that remain can hold that many. The
// cursor does not move until EndBits.
func (c *Cursor) Bits(what string, items int) (BitReader, error) {
	if items < 0 || runBytes(items) > len(c.b) {
		return BitReader{}, c.tooMany(what, uint64(items))
	}
	return BitReader{b: c.b}, nil
}

// EndBits consumes the run r read: the bytes its bits reach into, and no
// fewer than a run of that many items occupies.
func (c *Cursor) EndBits(what string, r *BitReader, items int) error {
	_, err := c.Bytes(what, max(r.used(), runBytes(items)))
	return err
}

// symbol is one decoded table entry: the value, or the smallest value of the
// class and how many low bits follow the code.
type symbol struct {
	base  uint64
	extra uint8
	len   uint8 // of its code
}

// Decoder reads the values of one column.
type Decoder struct {
	classed bool
	empty   bool
	bits    uint     // the longest code: the lookup index width
	table   []uint16 // 1<<bits entries: symbol index<<4 | code length
	syms    []symbol
	lens    []uint8 // the code lengths, until the lookup is built
}

// ReadDecoder parses a stored table whose column holds values up to most.
func (c *Cursor) ReadDecoder(what string, most uint64) (*Decoder, error) {
	d, err := c.readTable(what, most)
	if err != nil {
		return nil, err
	}
	d.build(make([]uint16, 1<<d.bits))
	return d, nil
}

// readTable parses a stored table whose column holds values up to most; its
// lookup is not built yet.
func (c *Cursor) readTable(what string, most uint64) (*Decoder, error) {
	mode, err := c.Bytes(what+" table mode", 1)
	if err != nil {
		return nil, err
	}
	if mode[0] > modeClass {
		return nil, c.Errorf("%s table mode %d", what, mode[0])
	}
	d := &Decoder{classed: mode[0] == modeClass}
	limit := most
	if d.classed {
		limit = uint64(bits.Len64(most))
	}
	n, err := c.Count(what+" table size", MaxSymbols, 1)
	if err != nil {
		return nil, err
	}
	d.empty = n == 0
	d.syms = make([]symbol, max(n, 1)) // an empty table decodes zeros
	d.lens = make([]uint8, n)
	kraft, sym, entry := 0, uint64(0), what+" table entry"
	for i := range d.lens {
		x, err := c.Uvarint(entry)
		if err != nil {
			return nil, err
		}
		delta, l := x>>4, uint(x&15)
		if i > 0 && delta == 0 || delta > limit-sym {
			return nil, c.Errorf("%s table symbol %d out of order or above %d", what, i, limit)
		}
		sym += delta
		switch {
		case n == 1 && l != 0, n > 1 && (l == 0 || l > MaxCodeLen):
			return nil, c.Errorf("%s table gives symbol %d a %d-bit code", what, sym, l)
		case n > 1:
			kraft += 1 << (MaxCodeLen - l)
		}
		d.lens[i] = uint8(l)
		d.bits = max(d.bits, l)
		d.syms[i] = symbol{base: sym, len: uint8(l)}
		if d.classed && sym > 1 {
			d.syms[i] = symbol{base: 1 << (sym - 1), extra: uint8(sym - 1), len: uint8(l)}
		}
	}
	if n > 1 && kraft != 1<<MaxCodeLen {
		return nil, c.Errorf("%s table is not a complete prefix code", what)
	}
	return d, nil
}

// build fills in the lookup, table being 1<<d.bits entries.
func (d *Decoder) build(table []uint16) {
	d.table = table
	for i, code := range canonicalCodes(d.lens) {
		l := uint(d.lens[i])
		lo := int(code) << (d.bits - l)
		for j := lo; j < lo+1<<(d.bits-l); j++ {
			table[j] = uint16(i<<4) | uint16(l)
		}
	}
	d.lens = nil
}

// Empty reports a table with no symbols, which a column with no values has.
// Next on it returns zeros without reading.
func (d *Decoder) Empty() bool { return d.empty }

// Mode names how the column is coded: "huffman" over its values, "class"
// over their bit lengths with the low bits raw, "none" when it has at most
// one symbol and costs no bits.
func (d *Decoder) Mode() string {
	switch {
	case len(d.table) == 1:
		return "none"
	case d.classed:
		return "class"
	}
	return "huffman"
}

// Cost is the number of bits Next reads for the value v, or -1 when the table
// has no code for it.
func (d *Decoder) Cost(v uint64) int {
	// The last symbol at or below v.
	i := sort.Search(len(d.syms), func(i int) bool { return d.syms[i].base > v }) - 1
	if i < 0 || d.empty {
		return -1
	}
	s := d.syms[i]
	if (v-s.base)>>s.extra != 0 {
		return -1
	}
	return int(s.len) + int(s.extra)
}

// Next reads one value.
func (d *Decoder) Next(r *BitReader) uint64 {
	if r.n < MaxCodeLen {
		r.refill()
	}
	e := d.table[r.buf>>(64-d.bits)]
	r.skip(uint(e & 15))
	s := d.syms[e>>4]
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
// cheaper of the two shapes, then shortens the longest codes until the
// decoder's lookups fit MaxContextLookup: the table with the largest lookup
// (the first of them by context) is rebuilt with codes a bit shorter, again
// and again. Any table longer than minLimit bits can shrink, and every table
// at minLimit fits, so the loop ends.
func (h *ContextHistogram) Encoder() *ContextEncoder {
	e := &ContextEncoder{encs: make([]*Encoder, len(h.h))}
	total := 0
	for ctx, hc := range h.h {
		if hc != nil {
			e.encs[ctx] = hc.Encoder()
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
		shorter := h.h[largest].encoder(int(e.encs[largest].bits) - 1)
		total += shorter.lookup() - e.encs[largest].lookup()
		e.encs[largest] = shorter
	}
	return e
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
func (e *ContextEncoder) PutChain(w *BitWriter, b []byte) {
	ctx := 0
	for _, v := range b {
		if enc := e.encs[ctx]; enc.classed {
			enc.putClass(w, uint64(v))
		} else {
			c := enc.codes[v]
			w.WriteBits(uint64(c.bits), uint(c.len))
		}
		ctx = int(v) + 1
	}
}

// ContextDecoder reads the values of a context column.
type ContextDecoder struct {
	decs   []*Decoder // by context; nil where the context has no table
	tables []*Decoder // the distinct tables, ascending by context
	// For Chain, in a column of ChainContexts contexts: the lookups of the
	// direct tables side by side, each entry the value<<4 | code length and,
	// in bits 12 to 31, where the lookup of the context the value leads to
	// is; and at, that place for each context.
	chain []uint32
	at    []uint32
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
// it builds any of them.
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
		if size += 1 << d.bits; 2*size > MaxContextLookup {
			return nil, c.Errorf("%s tables ask for more than %d lookup bytes", what, MaxContextLookup)
		}
		cd.decs[ctx], cd.tables[i] = d, d
	}
	lookup := make([]uint16, size)
	for _, d := range cd.tables {
		n := 1 << d.bits
		d.build(lookup[:n:n])
		lookup = lookup[n:]
	}
	cd.buildChain()
	return cd, nil
}

// SharedContexts returns a column of the given number of contexts written
// with the one table d: every context decodes through it or, when d is empty,
// none does.
func SharedContexts(d *Decoder, contexts int) *ContextDecoder {
	cd := &ContextDecoder{decs: make([]*Decoder, contexts), tables: []*Decoder{d}}
	if !d.Empty() {
		for i := range cd.decs {
			cd.decs[i] = d
		}
	}
	cd.buildChain()
	return cd
}

// buildChain lays out the chain of a column of ChainContexts contexts: the
// lookup of every direct table of byte values, once however many contexts in
// a row share it, then every entry's value taken from the table's symbols and
// widened by the place of the context the value leads to. It holds the
// entries of those tables' own lookups, each four bytes wide.
func (cd *ContextDecoder) buildChain() {
	if len(cd.decs) != ChainContexts {
		return
	}
	cd.at = make([]uint32, ChainContexts)
	size := 0
	for ctx, d := range cd.decs {
		switch {
		case ctx > 0 && d == cd.decs[ctx-1]:
			cd.at[ctx] = cd.at[ctx-1]
		case d == nil || d.classed || d.syms[len(d.syms)-1].base > math.MaxUint8:
			cd.at[ctx] = chainSlow
		default:
			cd.at[ctx] = uint32(size)<<16 | uint32(d.bits)<<12
			size += len(d.table)
		}
	}
	cd.chain = make([]uint32, size)
	for ctx, d := range cd.decs {
		if a := cd.at[ctx]; a != chainSlow && (ctx == 0 || d != cd.decs[ctx-1]) {
			for j, e := range d.table {
				v := d.syms[e>>4].base
				cd.chain[int(a>>16)+j] = uint32(v)<<4 | uint32(e&15) | cd.at[v+1]
			}
		}
	}
}

// For returns the decoder of context ctx, nil when the context has no table.
func (cd *ContextDecoder) For(ctx int) *Decoder { return cd.decs[ctx] }

// Tables is the number of tables the column carries.
func (cd *ContextDecoder) Tables() int { return len(cd.tables) }

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
// byte. It reports false, having read part of the run, when a value's context
// has no table. A value of a direct table costs one lookup, in the chain,
// which also says where the next value's lookup is; any other goes through
// its context's Decoder. (Picking each value's Decoder, then its lookup
// entry, then its symbol puts three dependent loads between one value and
// the next; on long bulk transfers that decoded a third slower.)
func (cd *ContextDecoder) Chain(r *BitReader, dst []byte) bool {
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
