package wire

import (
	"encoding/binary"
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

const (
	// MaxCodeLen is the longest code a table may assign: a decoder's lookup
	// table has at most 1<<MaxCodeLen entries.
	MaxCodeLen = 12
	// MaxSymbols is the largest alphabet of one table.
	MaxSymbols = 1 << MaxCodeLen
	// MaxItemsPerByte is the densest a run of coded items is ever packed.
	MaxItemsPerByte = 8

	modeDirect = 0
	modeClass  = 1

	// directLimit bounds the values a direct table built here may name: the
	// counting pass indexes a dense array by value. The columns worth a
	// direct table are indexes (templates, addresses), which are dense.
	directLimit = 4 * MaxSymbols
)

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

// AddBytes counts one occurrence of every byte of b.
func (h *Histogram) AddBytes(b []byte) {
	for _, v := range b {
		h.small[v]++
	}
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
	syms    []uint64 // the table: symbols ascending
	lens    []uint8  // and their code lengths
	codes   []code   // indexed by value (direct, at least 256 long) or by bit length (class)
}

// Encoder builds the cheaper of the two tables for the values counted so far.
func (h *Histogram) Encoder() *Encoder {
	classes, distinct := h.classes, h.distinct
	for v, n := range h.small {
		classes[bits.Len64(uint64(v))] += n
		if n != 0 {
			distinct++
		}
	}
	class := newEncoder(true, classes[:])
	if h.wide || distinct > MaxSymbols {
		return class
	}
	values := make([]uint64, max(len(h.small), len(h.large)))
	copy(values, h.large)
	copy(values, h.small[:])
	direct := newEncoder(false, values)
	if direct.cost(values) <= class.cost(classes[:]) {
		return direct
	}
	return class
}

// newEncoder builds the table over the symbols with a non-zero count.
func newEncoder(classed bool, counts []uint64) *Encoder {
	e := &Encoder{classed: classed, codes: make([]code, len(counts))}
	var present []uint64
	for s, n := range counts {
		if n != 0 {
			e.syms = append(e.syms, uint64(s))
			present = append(present, n)
		}
	}
	e.lens = codeLengths(present)
	for i, c := range canonicalCodes(e.lens) {
		e.codes[e.syms[i]] = code{bits: c, len: e.lens[i]}
	}
	return e
}

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

// PutBytes writes every byte of b as a value.
func (e *Encoder) PutBytes(w *BitWriter, b []byte) {
	if e.classed {
		for _, v := range b {
			e.Put(w, uint64(v))
		}
		return
	}
	codes, acc, n, buf := e.codes[:256], w.acc, w.n, w.buf
	for _, v := range b {
		c := codes[v]
		acc = acc<<c.len | uint64(c.bits)
		if n += uint(c.len); n >= 32 {
			n -= 32
			buf = binary.BigEndian.AppendUint32(buf, uint32(acc>>n))
		}
	}
	w.acc, w.n, w.buf = acc, n, buf
}

// codeLengths returns optimal prefix-code lengths for symbols with the given
// non-zero counts, none longer than MaxCodeLen. One symbol gets length 0.
func codeLengths(counts []uint64) []uint8 {
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
		perLen[min(d, MaxCodeLen)]++
	}
	kraft := 0
	for l := 1; l <= MaxCodeLen; l++ {
		kraft += perLen[l] << (MaxCodeLen - l)
	}
	for ; kraft > 1<<MaxCodeLen; kraft-- {
		perLen[MaxCodeLen]--
		for l := MaxCodeLen - 1; l > 0; l-- {
			if perLen[l] > 0 {
				perLen[l]--
				perLen[l+1] += 2
				break
			}
		}
	}
	// The rarest symbols take the longest codes.
	i := 0
	for l := MaxCodeLen; l > 0; l-- {
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
}

// ReadDecoder parses a stored table whose column holds values up to most.
func (c *Cursor) ReadDecoder(what string, most uint64) (*Decoder, error) {
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
	lens := make([]uint8, n)
	kraft, sym, entry := 0, uint64(0), what+" table entry"
	for i := range lens {
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
		lens[i] = uint8(l)
		d.bits = max(d.bits, l)
		d.syms[i] = symbol{base: sym, len: uint8(l)}
		if d.classed && sym > 1 {
			d.syms[i] = symbol{base: 1 << (sym - 1), extra: uint8(sym - 1), len: uint8(l)}
		}
	}
	if n > 1 && kraft != 1<<MaxCodeLen {
		return nil, c.Errorf("%s table is not a complete prefix code", what)
	}
	d.table = make([]uint16, 1<<d.bits)
	for i, code := range canonicalCodes(lens) {
		l := uint(lens[i])
		lo := int(code) << (d.bits - l)
		for j := lo; j < lo+1<<(d.bits-l); j++ {
			d.table[j] = uint16(i<<4) | uint16(l)
		}
	}
	return d, nil
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

// Bytes reads len(dst) values of a column whose values fit a byte.
func (d *Decoder) Bytes(r *BitReader, dst []byte) {
	if d.classed {
		for i := range dst {
			dst[i] = byte(d.Next(r))
		}
		return
	}
	// A refill leaves at least 57 bits: four codes of at most 12.
	br, shift, i := *r, 64-d.bits, 0
	for ; i+4 <= len(dst); i += 4 {
		br.refill()
		for k := range dst[i : i+4] {
			e := d.table[br.buf>>shift]
			br.skip(uint(e & 15))
			dst[i+k] = byte(d.syms[e>>4].base)
		}
	}
	for ; i < len(dst); i++ {
		br.refill()
		e := d.table[br.buf>>shift]
		br.skip(uint(e & 15))
		dst[i] = byte(d.syms[e>>4].base)
	}
	*r = br
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
