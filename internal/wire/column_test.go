package wire

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"flowzip/internal/alloctest"
)

// encodeColumn writes xs as one column: the table, then the run — a bit run
// under the cheaper Huffman shape or, with rans, an rANS run under the
// cheapest of the four.
func encodeColumn(xs []uint64, rans bool) []byte {
	var h Histogram
	for _, x := range xs {
		h.Add(x)
	}
	return encodeWith(h.Encoder(rans), xs, rans)
}

// encodeWith writes e's table, then xs as a run of the given kind.
func encodeWith(e *Encoder, xs []uint64, rans bool) []byte {
	w := NewRunWriter(rans)
	w.Start(e.AppendTable(nil))
	for _, x := range xs {
		e.Put(&w, x)
	}
	return w.EndRun(len(xs))
}

// decodeColumn reads n values of a column whose values go up to most.
func decodeColumn(b []byte, n int, most uint64, rans bool) ([]uint64, error) {
	c := NewCursor(b, errTest)
	d, err := c.ReadDecoder("test", most)
	if err != nil {
		return nil, err
	}
	if n > 0 && d.Empty() {
		return nil, c.Errorf("values, but an empty table")
	}
	if d.RANS() && !rans {
		return nil, c.Errorf("an rANS table in a bit run")
	}
	r, err := c.Run("test run", n, rans)
	if err != nil {
		return nil, err
	}
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = d.Next(&r)
	}
	if err := c.EndRun("test run", &r, n); err != nil {
		return nil, err
	}
	return xs, c.Done("test column")
}

func roundTrip(t *testing.T, name string, xs []uint64, rans bool) []byte {
	t.Helper()
	b := encodeColumn(xs, rans)
	got, err := decodeColumn(b, len(xs), math.MaxUint64, rans)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !slices.Equal(got, xs) {
		t.Fatalf("%s: %d values do not round-trip", name, len(xs))
	}
	return b
}

// encodeChains writes a chain column counted from chains: its tables, then
// each chain as a run of the given kind, as the container writes a template's
// values.
func encodeChains(chains [][]byte, rans bool) []byte {
	h := NewContextHistogram(ChainContexts)
	for _, ch := range chains {
		h.AddChain(ch)
	}
	return appendChains(h.Encoder(rans), chains, rans)
}

// appendChains writes e's tables, then each chain as a run of the given kind.
func appendChains(e *ContextEncoder, chains [][]byte, rans bool) []byte {
	w := NewRunWriter(rans)
	b := e.AppendTables(nil)
	for _, ch := range chains {
		w.Start(b)
		e.PutChain(&w, ch)
		b = w.EndRun(len(ch))
	}
	return b
}

// errNoTable is decodeChains' report of a value whose context has no table.
var errNoTable = errors.New("a value's context has no table")

// decodeChains reads chains of the given lengths from a chain column, one run
// each, through Chain.
func decodeChains(b []byte, lens []int, rans bool) ([][]byte, error) {
	c := NewCursor(b, errTest)
	d, err := c.ReadContexts("test", ChainContexts, math.MaxUint8)
	if err != nil {
		return nil, err
	}
	if d.RANS() && !rans {
		return nil, c.Errorf("an rANS table in a bit run")
	}
	d.Build(rans)
	chains := make([][]byte, len(lens))
	for i, n := range lens {
		r, err := c.Run("test run", n, rans)
		if err != nil {
			return nil, err
		}
		chains[i] = make([]byte, n)
		if !d.Chain(&r, chains[i]) {
			return nil, errNoTable
		}
		if err := c.EndRun("test run", &r, n); err != nil {
			return nil, err
		}
	}
	return chains, c.Done("test")
}

// entropyBytes is the order-0 entropy of xs in bytes.
func entropyBytes(xs []uint64) float64 {
	counts := map[uint64]float64{}
	for _, x := range xs {
		counts[x]++
	}
	bits := 0.0
	for _, n := range counts {
		bits += n * math.Log2(float64(len(xs))/n)
	}
	return bits / 8
}

// columnCases are columns of every shape a table takes.
func columnCases() map[string][]uint64 {
	rng := rand.New(rand.NewSource(1))
	zipf, relabel := rand.NewZipf(rng, 1.3, 4, 600), rng.Perm(601) // popularity unrelated to magnitude, as template ids are
	cases := map[string][]uint64{"empty": nil, "one value": {42}, "one huge value": {math.MaxUint64}}
	for i := 0; i < 5000; i++ {
		cases["one symbol"] = append(cases["one symbol"], 7)
		cases["two symbols"] = append(cases["two symbols"], uint64(i%7/6))
		for k := 0; k < 10; k++ { // enough values to pay for a table of hundreds of symbols
			cases["zipf index"] = append(cases["zipf index"], uint64(relabel[zipf.Uint64()]))
		}
		cases["bytes"] = append(cases["bytes"], uint64(rng.Intn(9)*3))
		cases["wide"] = append(cases["wide"], uint64(rng.ExpFloat64()*50000))
		cases["every width"] = append(cases["every width"], rng.Uint64()>>uint(rng.Intn(64)))
		cases["9000 symbols"] = append(cases["9000 symbols"], uint64(rng.Intn(9000)))
		cases["sparse"] = append(cases["sparse"], uint64(rng.Intn(40))*401)
		cases["past the direct limit"] = append(cases["past the direct limit"], uint64(rng.Intn(3))*directLimit)
		skew := uint64(3)
		if rng.Intn(1000) == 0 {
			skew = uint64(rng.Intn(4))
		}
		cases["p = 0.999"] = append(cases["p = 0.999"], skew)
	}
	return cases
}

func TestColumnRoundTrip(t *testing.T) {
	cases := columnCases()
	for name, xs := range cases {
		b := roundTrip(t, name, xs, false)
		r := roundTrip(t, name+" (rANS)", xs, true)
		t.Logf("%-22s %5d values, mode %d: %6d bytes, rANS run mode %d: %6d bytes, order-0 entropy %8.1f", name, len(xs), b[0], len(b), r[0], len(r), entropyBytes(xs))
	}
	// A column of one symbol costs its padding, whatever the symbol.
	if b := roundTrip(t, "one symbol", cases["one symbol"], false); len(b) > 4+5000/MaxItemsPerByte {
		t.Errorf("5000 equal values took %d bytes", len(b))
	}
	// A small alphabet is coded directly and lands within a few percent of its entropy.
	for _, name := range []string{"zipf index", "bytes", "sparse"} {
		b := roundTrip(t, name, cases[name], false)
		if h := entropyBytes(cases[name]); b[0] != modeDirect || float64(len(b)) > 1.03*h+700 {
			t.Errorf("%s: mode %d, %d bytes against an entropy of %.0f", name, b[0], len(b), h)
		}
	}
	// More symbols than a table holds, or values past what one names, are
	// coded by class, near bit length plus a little.
	for _, name := range []string{"wide", "every width", "9000 symbols", "past the direct limit"} {
		if b := roundTrip(t, name, cases[name], false); b[0] != modeClass {
			t.Errorf("%s: mode %d, want class", name, b[0])
		}
	}
	// A skewed column takes an rANS table (how far under a bit a value it
	// goes shows in TestRANSRoundTrip: alone, its run is held to the padding).
	if r := roundTrip(t, "p = 0.999", cases["p = 0.999"], true); r[0] != modeRANS {
		t.Errorf("p = 0.999: mode %d, want rANS", r[0])
	}
}

// huffmanCost is the cost in bits of an unrestricted Huffman code.
type costHeap []uint64

func (h costHeap) Len() int           { return len(h) }
func (h costHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h costHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *costHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *costHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func huffmanCost(counts []uint64) uint64 {
	h := costHeap(slices.Clone(counts))
	heap.Init(&h)
	total := uint64(0)
	for h.Len() > 1 {
		a, b := heap.Pop(&h).(uint64), heap.Pop(&h).(uint64)
		total += a + b
		heap.Push(&h, a+b)
	}
	return total
}

// TestCodeLengths: the lengths are a complete prefix code within the limit,
// optimal whenever the optimum fits the limit, and within a few percent of it
// when not (Fibonacci counts, whose optimum is 39 bits deep, are the worst).
func TestCodeLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fib := []uint64{1, 1}
	for len(fib) < 40 {
		fib = append(fib, fib[len(fib)-1]+fib[len(fib)-2])
	}
	cases := map[string][]uint64{"two": {5, 1}, "three": {1, 1, 1}, "fibonacci": fib, "flat 4096": slices.Repeat([]uint64{3}, MaxSymbols)}
	for i := 0; i < 50; i++ {
		counts := make([]uint64, 2+rng.Intn(700))
		for j := range counts {
			counts[j] = 1 + uint64(rng.ExpFloat64()*float64(1+rng.Intn(1000)))
		}
		cases["random "+string(rune('A'+i))] = counts
	}
	for name, counts := range cases {
		lens := codeLengths(counts, MaxCodeLen)
		kraft, cost, longest := 0, uint64(0), uint8(0)
		for i, l := range lens {
			if l < 1 || l > MaxCodeLen {
				t.Fatalf("%s: symbol %d has length %d", name, i, l)
			}
			kraft += 1 << (MaxCodeLen - l)
			cost += counts[i] * uint64(l)
			longest = max(longest, l)
		}
		if kraft != 1<<MaxCodeLen {
			t.Errorf("%s: Kraft sum %d/%d", name, kraft, 1<<MaxCodeLen)
		}
		best := huffmanCost(counts)
		if cost < best || longest < MaxCodeLen && cost != best || float64(cost) > 1.03*float64(best) {
			t.Errorf("%s: %d bits, the unrestricted optimum is %d (longest code %d)", name, cost, best, longest)
		}
	}
	if lens := codeLengths([]uint64{9}, MaxCodeLen); len(lens) != 1 || lens[0] != 0 {
		t.Errorf("one symbol gets lengths %v, want [0]", lens)
	}
}

// TestLog2Fixed: the integer log2 an encoder costs rANS tables with is within
// a 65536th of a bit of the true one, and exact on powers of two.
func TestLog2Fixed(t *testing.T) {
	for x := uint64(1); x <= MaxSymbols; x++ {
		got, want := float64(log2Fixed(x))/65536, math.Log2(float64(x))
		if got > want || want-got > 1.0/65536 || x&(x-1) == 0 && got != want {
			t.Fatalf("log2Fixed(%d) = %v, want %v", x, got, want)
		}
	}
}

// table builds a stored table from a mode and (symbol delta, length) pairs.
func table(mode byte, n uint64, entries ...[2]uint64) []byte {
	b := binary.AppendUvarint([]byte{mode}, n)
	for _, e := range entries {
		b = binary.AppendUvarint(b, e[0]<<4|e[1])
	}
	return b
}

// ransTable builds a stored rANS table from a mode, a scale and (symbol delta,
// frequency) pairs.
func ransTable(mode, scale byte, entries ...[2]uint64) []byte {
	b := binary.AppendUvarint([]byte{mode, scale}, uint64(len(entries)))
	for _, e := range entries {
		b = binary.AppendUvarint(b, e[0]<<scale|(e[1]-1))
	}
	return b
}

// TestReadDecoderRejects: every malformed table fails with the cursor's
// sentinel before a lookup table is built from it.
func TestReadDecoderRejects(t *testing.T) {
	full := make([][2]uint64, MaxSymbols+1)
	for i := range full {
		full[i] = [2]uint64{1, MaxCodeLen}
	}
	cases := map[string][]byte{
		"no mode":                     {},
		"unknown mode":                table(4, 0),
		"over-subscribed":             table(modeDirect, 3, [2]uint64{0, 1}, [2]uint64{1, 1}, [2]uint64{1, 1}),
		"incomplete":                  table(modeDirect, 2, [2]uint64{0, 1}, [2]uint64{1, 2}),
		"longer than the limit":       table(modeDirect, 2, [2]uint64{0, 1}, [2]uint64{1, MaxCodeLen + 1}),
		"zero length among several":   table(modeDirect, 2, [2]uint64{0, 0}, [2]uint64{1, 1}),
		"one symbol with a length":    table(modeDirect, 1, [2]uint64{5, 1}),
		"more symbols than declared":  table(modeDirect, 9, [2]uint64{0, 1}, [2]uint64{1, 1}),
		"larger than any alphabet":    table(modeDirect, MaxSymbols+1, full...),
		"symbols out of order":        table(modeDirect, 2, [2]uint64{3, 1}, [2]uint64{0, 1}),
		"symbol above the column":     table(modeDirect, 2, [2]uint64{0, 1}, [2]uint64{256, 1}),
		"symbol overflows":            table(modeDirect, 2, [2]uint64{1 << 59, 1}, [2]uint64{1 << 59, 1}),
		"class above the column":      table(modeClass, 2, [2]uint64{0, 1}, [2]uint64{9, 1}),
		"class above any value":       table(modeClass, 2, [2]uint64{0, 1}, [2]uint64{65, 1}),
		"truncated entry":             append(table(modeDirect, 2, [2]uint64{0, 1}), 0x80),
		"a 2^28 count in four bytes":  table(modeDirect, 1<<28),
		"a table size beyond varints": append([]byte{modeDirect}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f),
		// rANS tables: the frequencies must fill the scale exactly, the scale
		// must be 1 to MaxCodeLen, and freq-1 is what is stored, so a symbol
		// squeezed out — one more symbol than slots — cannot read as a zero.
		"frequencies short of the scale":  ransTable(modeRANS, 4, [2]uint64{0, 3}, [2]uint64{1, 12}),
		"frequencies over the scale":      ransTable(modeRANS, 4, [2]uint64{0, 5}, [2]uint64{1, 12}),
		"a symbol left a zero frequency":  ransTable(modeRANS, 1, [2]uint64{0, 1}, [2]uint64{1, 1}, [2]uint64{1, 1}),
		"scale zero":                      ransTable(modeRANS, 0, [2]uint64{0, 1}),
		"scale above MaxCodeLen":          ransTable(modeRANS, MaxCodeLen+1, [2]uint64{0, 1 << 12}, [2]uint64{1, 1 << 12}),
		"an empty rANS table":             ransTable(modeRANS, 4),
		"rANS symbol above the column":    ransTable(modeRANS, 2, [2]uint64{0, 2}, [2]uint64{256, 2}),
		"rANS symbols out of order":       ransTable(modeRANS, 2, [2]uint64{3, 2}, [2]uint64{0, 2}),
		"an rANS class table (mode 3)":    ransTable(modeRANS|modeClass, 2, [2]uint64{0, 2}, [2]uint64{1, 2}),
		"no scale":                        {modeRANS},
		"more rANS symbols than declared": append(ransTable(modeRANS, 2, [2]uint64{0, 2}, [2]uint64{1, 2})[:2], 9, 0<<2|1, 1<<2|1),
	}
	for name, b := range cases {
		c := NewCursor(b, errTest)
		if _, err := c.ReadDecoder("test", 255); !errors.Is(err, errTest) {
			t.Errorf("%s: err = %v, want the cursor's sentinel", name, err)
		}
	}
	// An rANS lookup entry names its symbol in a byte: 257 symbols, the
	// frequencies right, are one too many.
	wide := append([][2]uint64{{0, 256}}, slices.Repeat([][2]uint64{{1, 1}}, 256)...)
	c := NewCursor(ransTable(modeRANS, 9, wide...), errTest)
	if _, err := c.ReadDecoder("test", 1000); !errors.Is(err, errTest) {
		t.Errorf("an rANS table of 257 symbols: err = %v, want the cursor's sentinel", err)
	}
	// 256 symbols of one slot each fill scale 8.
	each := append([][2]uint64{{0, 1}}, slices.Repeat([][2]uint64{{1, 1}}, 255)...)
	c = NewCursor(ransTable(modeRANS, 8, each...), errTest)
	if _, err := c.ReadDecoder("test", 1000); err != nil || c.Len() != 0 {
		t.Errorf("an rANS table of 256 symbols: err = %v with %d bytes left", err, c.Len())
	}
	// What the rejected tables are one step away from.
	for name, b := range map[string][]byte{
		"empty":               table(modeDirect, 0),
		"one symbol":          table(modeDirect, 1, [2]uint64{255, 0}),
		"two symbols":         table(modeDirect, 2, [2]uint64{0, 1}, [2]uint64{255, 1}),
		"the last class":      table(modeClass, 2, [2]uint64{0, 1}, [2]uint64{8, 1}),
		"the whole limit":     table(modeDirect, 3, [2]uint64{0, 1}, [2]uint64{1, 2}, [2]uint64{1, 2}),
		"rANS, the scale":     ransTable(modeRANS, 4, [2]uint64{0, 4}, [2]uint64{1, 12}),
		"rANS, one per slot":  ransTable(modeRANS, 1, [2]uint64{0, 1}, [2]uint64{255, 1}),
		"rANS, the top scale": ransTable(modeRANS, MaxCodeLen, [2]uint64{0, 1}, [2]uint64{255, MaxSymbols - 1}),
	} {
		c := NewCursor(b, errTest)
		if _, err := c.ReadDecoder("test", 255); err != nil || c.Len() != 0 {
			t.Errorf("%s: err = %v with %d bytes left", name, err, c.Len())
		}
	}
}

// TestRunBounded: a run holds at most MaxItemsPerByte items a byte, so a
// one-symbol column — zero bits a value — cannot claim a count its bytes do
// not bear out, and reading past the end of a run is an error, not a panic.
func TestRunBounded(t *testing.T) {
	oneSymbol := table(modeDirect, 1, [2]uint64{7, 0})
	for _, n := range []int{1 << 28, 8*4 + 1} {
		b := append(slices.Clone(oneSymbol), 0, 0, 0, 0)
		if _, err := decodeColumn(b, n, 255, false); !errors.Is(err, errTest) {
			t.Errorf("%d zero-bit values in four bytes: err = %v", n, err)
		}
	}
	if xs, err := decodeColumn(append(slices.Clone(oneSymbol), 0, 0, 0, 0), 32, 255, false); err != nil || len(xs) != 32 || xs[31] != 7 {
		t.Errorf("32 zero-bit values in four bytes: %v, %v", xs, err)
	}
	// Eight one-bit codes fit a byte; a ninth does not.
	twoSymbols := table(modeDirect, 2, [2]uint64{0, 1}, [2]uint64{1, 1})
	if xs, err := decodeColumn(append(slices.Clone(twoSymbols), 0xa5), 8, 255, false); err != nil || !slices.Equal(xs, []uint64{1, 0, 1, 0, 0, 1, 0, 1}) {
		t.Errorf("eight one-bit values: %v, %v", xs, err)
	}
	if _, err := decodeColumn(append(slices.Clone(twoSymbols), 0xa5), 9, 255, false); !errors.Is(err, errTest) {
		t.Errorf("nine one-bit values in one byte: err = %v", err)
	}
	// Twelve-bit codes: the count fits the run's bytes, the bits do not.
	long := table(modeDirect, 13, [2]uint64{0, 1}, [2]uint64{1, 2}, [2]uint64{1, 3}, [2]uint64{1, 4}, [2]uint64{1, 5}, [2]uint64{1, 6},
		[2]uint64{1, 7}, [2]uint64{1, 8}, [2]uint64{1, 9}, [2]uint64{1, 10}, [2]uint64{1, 11}, [2]uint64{1, 12}, [2]uint64{1, 12})
	if _, err := decodeColumn(append(slices.Clone(long), 0xff, 0xff, 0xff), 8, 255, false); !errors.Is(err, errTest) {
		t.Errorf("eight twelve-bit values in three bytes: err = %v", err)
	}
}

// TestRANSRunRejects: an rANS run fails closed — with the cursor's sentinel,
// never a panic or a loop — when its stored state is one no encoder ends in,
// when decoding it ends in another state than every run starts from, when it
// reads past its bytes, when its count outruns its padding, and when bytes
// are left over behind it.
func TestRANSRunRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Zero nine times in ten, else one of 200 values: 1.2 bits a value,
	// which a Huffman code spends 1.8 on.
	xs := make([]uint64, 8000)
	for i := range xs {
		if rng.Intn(10) == 0 {
			xs[i] = uint64(1 + rng.Intn(200))
		}
	}
	good := encodeColumn(xs, true)
	if good[0] != modeRANS {
		t.Fatalf("the column is coded in mode %d, want an rANS one", good[0])
	}
	c := NewCursor(good, errTest)
	if _, err := c.ReadDecoder("test", 255); err != nil {
		t.Fatal(err)
	}
	table, run := good[:len(good)-c.Len()], good[len(good)-c.Len():]
	if got, err := decodeColumn(good, len(xs), 255, true); err != nil || !slices.Equal(got, xs) {
		t.Fatalf("the run does not round-trip: %v", err)
	}
	// Two symbols of one slot each at scale 1: a value is one bit of the
	// state, so a stored state of 2*ransLow+2 reads value 0 and ends one
	// above where every run starts.
	halves := ransTable(modeRANS, 1, [2]uint64{0, 1}, [2]uint64{1, 1})
	state := func(x uint32) []byte { return binary.BigEndian.AppendUint32(nil, x) }
	if got, err := decodeColumn(slices.Concat(halves, state(2*ransLow+1)), 1, 255, true); err != nil || got[0] != 1 {
		t.Fatalf("the hand-written one-value run: %v, %v", got, err)
	}
	for name, in := range map[string]struct {
		b []byte
		n int
	}{
		"a state below ransLow":            {slices.Concat(table, state(ransLow-1), run[RANSFlush:]), len(xs)},
		"a state at ransLow<<8":            {slices.Concat(table, state(ransLow<<8), run[RANSFlush:]), len(xs)},
		"a truncated state":                {slices.Concat(halves, state(ransLow)[:3]), 0},
		"a wrong final state, no values":   {slices.Concat(halves, state(ransLow+1)), 0},
		"a wrong final state, one value":   {slices.Concat(halves, state(2*ransLow+2)), 1},
		"the run cut short":                {good[:len(good)-1], len(xs)},
		"a byte left over behind the run":  {append(slices.Clone(good), 0), len(xs)},
		"more values than the run carries": {good, 8*len(run) + 1},
		"a value the state does not hold":  {slices.Concat(halves, state(ransLow)), 1},
	} {
		if _, err := decodeColumn(in.b, in.n, 255, true); !errors.Is(err, errTest) {
			t.Errorf("%s: err = %v, want the cursor's sentinel", name, err)
		}
	}
	// An rANS table cannot be read from a bit run.
	if _, err := decodeColumn(good, len(xs), 255, false); !errors.Is(err, errTest) {
		t.Errorf("an rANS table read as a bit run: err = %v", err)
	}
	// Any flipped byte is refused or misread, never a panic or a loop.
	for i := len(table); i < len(good); i++ {
		b := slices.Clone(good)
		b[i] ^= byte(1 + rng.Intn(255))
		decodeColumn(b, len(xs), 255, true)
	}
}

// TestRANSRunBound: an rANS run's rANS part takes at most RANSFlush bytes
// plus its values' cost under the stored frequencies, scale - log2(freq) bits
// each, and a slack of log2(1 + 2^(scale-23)) bits a value — what an encoder
// that counts a column's cost (Encoder.Cost) and adds RANSFlush bytes a run
// assumes. The slack: coding a value moves the state from x to
// (x/freq)<<scale + x%freq + start, below x*2^scale/freq + 2^scale, and after
// renormalization x is at least (ransLow>>scale)*freq, so the state grows by
// at most a factor 2^scale/freq * (1 + 2^(scale-23)). A shed byte takes 8
// bits off the state, and the state ends where it starts, at ransLow or
// above, so the shed bytes hold no more than the values' cost plus the slack.
// Columns of 2 to 256 symbols at scales 1 to 12, skewed and flat, are cut into
// runs of 0 to 3000 values, each written under the column's table.
func TestRANSRunBound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for scale := 1; scale <= MaxCodeLen; scale++ {
		top := min(1<<scale, maxRANSSymbols)
		for _, alphabet := range []int{2, 2 + rng.Intn(top-1), top} {
			for _, skew := range []float64{0, 1, 8} {
				// Symbol i drawn with weight 1/(1+i)^skew, and every symbol
				// once, so the table's symbols are 0..alphabet-1 and freqs is
				// indexed by value.
				weights, total := make([]float64, alphabet), 0.0
				for i := range weights {
					weights[i] = math.Pow(1+float64(i), -skew)
					total += weights[i]
				}
				xs := make([]uint64, 0, 8000+alphabet)
				for i := range alphabet {
					xs = append(xs, uint64(i))
				}
				for len(xs) < cap(xs) {
					u, i := rng.Float64()*total, 0
					for ; i < alphabet-1 && u >= weights[i]; i++ {
						u -= weights[i]
					}
					xs = append(xs, uint64(i))
				}
				rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
				counts := make([]uint64, alphabet)
				for _, x := range xs {
					counts[x]++
				}
				syms, n := present(counts)
				freqs := normalize(n, scale, nil)
				e := ransEncoder(syms, freqs, scale, alphabet)
				slack := math.Log2(1 + math.Ldexp(1, scale)/ransLow)
				for rest := xs; ; {
					run := rest[:min(rng.Intn(3001), len(rest))]
					rest = rest[len(run):]
					w := NewRunWriter(true)
					w.Start(nil)
					cost := 0.0
					for _, x := range run {
						e.Put(&w, x)
						cost += float64(scale) - math.Log2(float64(freqs[x]))
					}
					got := 8 * len(w.EndRun(0))
					// 1e-6 bits absorbs the float rounding of cost.
					if limit := 8*RANSFlush + cost + float64(len(run))*slack; float64(got) > limit+1e-6 {
						t.Fatalf("%d symbols at scale %d, skew %g: a run of %d values takes %d bits, more than the %.3f its flush, cost and slack allow",
							alphabet, scale, skew, len(run), got, limit)
					}
					if len(rest) == 0 {
						break
					}
				}
			}
		}
	}
}

// TestRANSRoundTrip: an rANS run decodes to what was written for alphabets of
// 1 to 4096 symbols at every scale from 1 to 12, a symbol of probability
// 0.999, low bits of every count from 0 to 63, Huffman-shaped and rANS tables
// interleaved in one run, and runs of no value and of one.
func TestRANSRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// draw returns n values of a column over the given alphabet, skewed.
	draw := func(alphabet, n int) []uint64 {
		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = uint64(min(rng.Intn(alphabet), rng.Intn(alphabet)))
		}
		return xs
	}
	for scale := 1; scale <= MaxCodeLen; scale++ {
		for _, alphabet := range []int{1, 2, min(1<<scale/2, maxRANSSymbols), min(1<<scale, maxRANSSymbols)} {
			// Every symbol present, then values drawn from them.
			xs := append(draw(alphabet, 3000), make([]uint64, alphabet)...)
			for i := range alphabet {
				xs[3000+i] = uint64(i)
			}
			counts := make([]uint64, alphabet)
			for _, x := range xs {
				counts[x]++
			}
			syms, n := present(counts)
			e := ransEncoder(syms, normalize(n, scale, nil), scale, alphabet)
			b := encodeWith(e, xs, true)
			if b[0] != modeRANS || int(b[1]) != scale {
				t.Fatalf("alphabet %d at scale %d: table %x", alphabet, scale, b[:2])
			}
			if got, err := decodeColumn(b, len(xs), math.MaxUint64, true); err != nil || !slices.Equal(got, xs) {
				t.Fatalf("alphabet %d at scale %d: %v", alphabet, scale, err)
			}
		}
	}
	// Larger alphabets go through an rANS run under a Huffman-shaped table,
	// up to all 4096 symbols.
	for _, alphabet := range []int{maxRANSSymbols + 1, 1000, MaxSymbols} {
		xs := append(draw(alphabet, 20000), make([]uint64, alphabet)...)
		for i := range alphabet {
			xs[20000+i] = uint64(i)
		}
		if b := roundTrip(t, fmt.Sprintf("%d symbols", alphabet), xs, true); b[0] == modeRANS {
			t.Fatalf("%d symbols: a direct rANS table", alphabet)
		}
	}
	// Low bits 0 to 63: a class table over every bit length, through the
	// state.
	var wide []uint64
	for c := 0; c <= 64; c++ {
		for range 20 {
			v := uint64(0)
			if c > 0 {
				v = 1<<(c-1) | rng.Uint64()&(1<<(c-1)-1)
			}
			wide = append(wide, v)
		}
	}
	var classes [65]uint64
	for _, v := range wide {
		classes[bits.Len64(v)]++
	}
	e := newEncoder(modeClass, classes[:], MaxCodeLen)
	if got, err := decodeColumn(encodeWith(e, wide, true), len(wide), math.MaxUint64, true); err != nil || !slices.Equal(got, wide) {
		t.Fatalf("low bits 0 to 63: %v", err)
	}

	// Two columns in one run, alternating: a Huffman-shaped table, for 16
	// values equally often, and an rANS one, for a value of probability
	// 0.999, each read through its own decoder. Huffman would spend a bit on
	// every skewed value; the run spends the flat column's four bits and
	// next to nothing more.
	skewed, flat := columnCases()["p = 0.999"], make([]uint64, 5000)
	var hs, hf Histogram
	for i := range skewed {
		flat[i] = uint64(i % 16)
		hs.Add(skewed[i])
		hf.Add(flat[i])
	}
	es, ef := hs.Encoder(true), hf.Encoder(true)
	if !es.rans() || ef.rans() {
		t.Fatalf("the skewed column is coded in mode %d, the flat one in mode %d", es.mode, ef.mode)
	}
	for _, n := range []int{0, 1, 2, len(skewed)} {
		w := NewRunWriter(true)
		w.Start(ef.AppendTable(es.AppendTable(nil)))
		for i := range n {
			es.Put(&w, skewed[i])
			ef.Put(&w, flat[i])
		}
		b := w.EndRun(2 * n)
		c := NewCursor(b, errTest)
		ds, err := c.ReadDecoder("skewed", math.MaxUint64)
		if err != nil {
			t.Fatal(err)
		}
		df, err := c.ReadDecoder("flat", math.MaxUint64)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 && c.Len() != RANSFlush {
			t.Errorf("a run of no values takes %d bytes, want the flush alone", c.Len())
		}
		if h := entropyBytes(skewed[:n]); float64(c.Len()) > float64(n)/2+1.1*h+RANSFlush {
			t.Errorf("%d value pairs take %d bytes: the flat column's %d and the skewed one's entropy, %.0f", n, c.Len(), n/2, h)
		}
		r, err := c.Run("test", 2*n, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := range n {
			if s, f := ds.Next(&r), df.Next(&r); s != skewed[i] || f != flat[i] {
				t.Fatalf("%d value pairs: pair %d reads %d, %d, want %d, %d", n, i, s, f, skewed[i], flat[i])
			}
		}
		if err := c.EndRun("test", &r, 2*n); err != nil || c.Done("test") != nil {
			t.Fatalf("%d value pairs: %v, %d bytes left", n, err, c.Len())
		}
	}
	// Runs of one value, under every shape.
	for name, xs := range columnCases() {
		if len(xs) > 0 {
			roundTrip(t, fmt.Sprintf("one value of %s", name), xs[:1], true)
		}
	}
}

// FuzzColumn holds the coder to decode(encode(xs)) == xs on the values the
// input spells, and on its bytes cut into chains of 0, 1, 2, ... bytes, in a
// bit run and an rANS run, and to failing cleanly — no panic, no loop, no
// allocation beyond MaxItemsPerByte values a byte (columnAllocMax,
// chainAllocMax) — when the input is taken as a column of either kind, or as
// a chain column.
func FuzzColumn(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Add(binary.AppendUvarint(binary.AppendUvarint([]byte{1, 2, 3, 250}, 1<<40), math.MaxUint64))
	f.Add(encodeColumn([]uint64{1, 0, 1, 0, 0, 1, 0, 1, 900, 70000}, false))
	f.Add(append(table(modeDirect, 1, [2]uint64{7, 0}), 0xff, 0xff, 0xff, 0xff, 0x0f))
	f.Add(append(table(modeClass, 2, [2]uint64{63, 1}, [2]uint64{1, 1}), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff))
	// rANS runs: a skewed column, a wide class one, and a state that does not
	// come back.
	skewed := slices.Repeat([]uint64{3}, 300)
	skewed[100], skewed[200] = 1, 2
	f.Add(encodeColumn(skewed, true))
	f.Add(encodeColumn([]uint64{1 << 62, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 70000, 3, 3, 3}, true))
	f.Add(append(ransTable(modeRANS, 12, [2]uint64{0, 4095}, [2]uint64{1, 1}), 0x00, 0x80, 0x00, 0x01, 0xff))
	// Chains: cut into chains of 0 to 3 bytes, whose every value is in a tail
	// context, and chain columns whose tails have tables where their bodies
	// have none and the other way round.
	f.Add([]byte{9, 4, 4, 200, 201, 202})
	for _, rans := range []bool{false, true} {
		f.Add(encodeChains([][]byte{{1}, {1, 2}, {1, 2, 3}, {250}, {251, 252}}, rans))
		f.Add(withoutTail(ChainLast, rans))
		f.Add(withoutTail(ChainSecondLast, rans))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		check := func(what string, bound int, decode func()) {
			if got := alloctest.Least(decode); got > uint64(bound) {
				t.Fatalf("decoding %d bytes as %s allocated %d bytes, bound %d", len(b), what, got, bound)
			}
		}
		// The input as values: alternately a byte and a uvarint.
		var xs []uint64
		for c := NewCursor(b, errTest); c.Len() > 0; {
			one, _ := c.Bytes("byte", 1)
			xs = append(xs, uint64(one[0]))
			if v, err := c.Uvarint("value"); err == nil {
				xs = append(xs, v)
			}
		}
		for _, rans := range []bool{false, true} {
			got, err := decodeColumn(encodeColumn(xs, rans), len(xs), math.MaxUint64, rans)
			if err != nil || !slices.Equal(got, xs) {
				t.Fatalf("%d values do not round-trip (rANS %v): %v", len(xs), rans, err)
			}
			// The input as a column of as many values as its bytes could hold.
			check("a column", columnAllocMax(len(b)), func() { decodeColumn(b, len(b)*MaxItemsPerByte, math.MaxUint64, rans) })
			check("a byte column", columnAllocMax(len(b)), func() { decodeColumn(b, len(b), 255, rans) })
			// The input's bytes as chains, and the input as a chain column.
			var chains [][]byte
			var lens []int
			for rest := b; len(rest) > 0; {
				n := min(len(chains), len(rest))
				chains, lens, rest = append(chains, rest[:n]), append(lens, n), rest[n:]
			}
			back, err := decodeChains(encodeChains(chains, rans), lens, rans)
			if err != nil || !slices.EqualFunc(back, chains, bytes.Equal) {
				t.Fatalf("%d chains do not round-trip (rANS %v): %v", len(chains), rans, err)
			}
			for _, n := range []int{1, 2, 3, 4, len(b) * MaxItemsPerByte} {
				check("a chain column", chainAllocMax(len(b)), func() { decodeChains(b, []int{n}, rans) })
			}
		}
	})
}

// columnAllocMax is the most decodeColumn may allocate on n bytes of input:
// the one lookup, which the input does not bound (at most 4<<MaxCodeLen bytes,
// an rANS table's), 4 KiB for the decoder and an error, and per byte of
// input MaxItemsPerByte 8-byte values and a table symbol's share.
func columnAllocMax(n int) int { return 4<<MaxCodeLen + 4<<10 + n*(8*MaxItemsPerByte+32) }

// chainAllocMax is the most decodeChains may allocate on n bytes of input:
// the lookups and the chain over them (at most 2*MaxContextLookup bytes),
// 8 KiB for the arrays of one entry a context and an error, and per byte of
// input MaxItemsPerByte chain bytes and a table's share, its Decoder and
// symbols.
func chainAllocMax(n int) int { return 2*MaxContextLookup + 8<<10 + n*(MaxItemsPerByte+128) }

// withoutTail is a chain column with no table for the tail context ctx and
// one run, of the chain 5, 6, 7, 8, whose value under ctx is coded under the
// other tail context's table instead. That table and the one after 6 hold
// both tail values, so only a decoder that reads a value through a table not
// its context's gets the chain back.
func withoutTail(ctx int, rans bool) []byte {
	chain, other := []byte{5, 6, 7, 8}, ChainSecondLast+ChainLast-ctx
	h := NewContextHistogram(ChainContexts)
	h.Add(0, 5)
	h.Add(chainAfter+5, 6)
	for _, v := range chain[2:] {
		h.Add(other, uint64(v))
		h.Add(chainAfter+6, uint64(v))
	}
	e := h.Encoder(rans)
	w := NewRunWriter(rans)
	w.Start(e.AppendTables(nil))
	for i, v := range chain {
		c := ChainContext(chain, i)
		if c == ctx {
			c = other
		}
		e.For(c).Put(&w, uint64(v))
	}
	return w.EndRun(len(chain))
}

// chainRuns are runs of bytes for a chain column: every value in turn and
// then 255, 0, so every context holds values; after 7 always 8 (one symbol);
// after 8 one of four values, a direct table; after 11 uniform noise, which a
// class table codes cheaper than a 256-symbol one; after 12 nearly always 7,
// which only an rANS table codes in under a bit.
func chainRuns(rng *rand.Rand) [][]byte {
	up := make([]byte, 256, 258)
	for i := range up {
		up[i] = byte(i)
	}
	runs := [][]byte{append(up, 255, 0), {}, {7, 8, 7, 8}}
	for i := 0; i < 300; i++ {
		run := []byte{7}
		for len(run) < 1+rng.Intn(60) {
			switch prev := run[len(run)-1]; {
			case prev == 7:
				run = append(run, 8)
			case prev == 8:
				run = append(run, []byte{7, 11, 12, 13}[rng.Intn(4)])
			case prev == 11:
				run = append(run, byte(rng.Intn(256)))
			case prev == 12 && rng.Intn(1000) != 0:
				run = append(run, 7)
			default:
				run = append(run, []byte{7, 8, 11}[rng.Intn(3)])
			}
		}
		runs = append(runs, run)
	}
	return runs
}

// TestContextRoundTrip: a chain column, in all ChainContexts contexts, beside
// contexts that hold no values (no table, no
// bytes), contexts of one symbol (zero bits a value) and direct and class
// tables side by side, decodes through the chain to what was written, in a
// bit run under Huffman tables and in an rANS run, one run per template as
// the container writes them; so does a wide column coded under a context
// given with each value.
func TestContextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	runs := chainRuns(rng)
	h := NewContextHistogram(ChainContexts)
	for _, run := range runs {
		h.AddChain(run)
	}
	for _, rans := range []bool{false, true} {
		e := h.Encoder(rans)
		if e.RANS() != rans {
			t.Fatalf("rANS %v: the tables' RANS() is %v", rans, e.RANS())
		}
		w := NewRunWriter(rans)
		b := e.AppendTables(nil)
		for _, run := range runs {
			w.Start(b)
			e.PutChain(&w, run)
			b = w.EndRun(len(run))
		}
		c := NewCursor(b, errTest)
		d, err := c.ReadContexts("test", ChainContexts, 255)
		if err != nil {
			t.Fatal(err)
		}
		d.Build(rans)
		if d.Tables() != ChainContexts {
			t.Errorf("%d tables, want one for each of the %d contexts", d.Tables(), ChainContexts)
		}
		// Every shape, one beside the other: in an rANS run the skewed
		// context and the near-uniform ones take rANS tables, the contexts of
		// a few values stay Huffman-shaped.
		modes := map[string]int{}
		for ctx := range ChainContexts {
			modes[d.For(ctx).Mode()]++
		}
		after12, huffman := "huffman", modes["huffman"] > 0
		if rans {
			after12 = "rans"
		}
		if d.Mode() != "mixed" || d.For(chainAfter+7).Mode() != "none" || d.For(chainAfter+11).Mode() != "class" || d.For(chainAfter+12).Mode() != after12 || !huffman || modes["rans"] > 0 != rans {
			t.Errorf("rANS %v: modes %s, after 7 %s, after 11 %s, after 12 %s, tables %v", rans, d.Mode(), d.For(chainAfter+7).Mode(), d.For(chainAfter+11).Mode(), d.For(chainAfter+12).Mode(), modes)
		}
		for i, run := range runs {
			r, err := c.Run("test run", len(run), rans)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(run))
			if !d.Chain(&r, got) || !slices.Equal(got, run) {
				t.Fatalf("rANS %v, run %d: %v, want %v", rans, i, got, run)
			}
			if err := c.EndRun("test run", &r, len(run)); err != nil {
				t.Fatalf("rANS %v, run %d: %v", rans, i, err)
			}
		}
		if err := c.Done("test"); err != nil {
			t.Fatal(err)
		}
	}

	// Fewer contexts, wide values, the context given: only the even contexts
	// hold values, and context 2's one value costs nothing. ContextEncoder.Cost
	// is the bits of the tables and the codes.
	const contexts = 10
	var ctxs []int
	var vals []uint64
	for i := 0; i < 3000; i++ {
		ctx := 2 * rng.Intn(contexts/2)
		v := uint64(rng.ExpFloat64() * float64(uint64(1)<<(4*ctx)))
		if ctx == 2 {
			v = 1 << 40
		}
		ctxs, vals = append(ctxs, ctx), append(vals, v)
	}
	wh := NewContextHistogram(contexts)
	for i, v := range vals {
		wh.Add(ctxs[i], v)
	}
	for _, rans := range []bool{false, true} {
		we := wh.Encoder(rans)
		w := NewRunWriter(rans)
		w.Start(we.AppendTables(nil))
		for i, v := range vals {
			we.For(ctxs[i]).Put(&w, v)
		}
		b := w.EndRun(len(vals))
		// A bit run is its tables and its codes, which Cost counts exactly.
		if !rans && (we.Cost()+8<<16-1)/(8<<16) != uint64(len(b)) {
			t.Errorf("tables and run take %d bytes, Cost %d/65536 bits", len(b), we.Cost())
		}
		c := NewCursor(b, errTest)
		d, err := c.ReadContexts("test", contexts, math.MaxUint64)
		if err != nil {
			t.Fatal(err)
		}
		d.Build(rans)
		if d.Tables() != contexts/2 || d.For(1) != nil || d.For(2).Mode() != "none" {
			t.Fatalf("%d tables; context 1 has %v, context 2 is coded %s", d.Tables(), d.For(1), d.For(2).Mode())
		}
		r, err := c.Run("test run", len(vals), rans)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if got := d.For(ctxs[i]).Next(&r); got != v {
				t.Fatalf("rANS %v: value %d under context %d: %d, want %d", rans, i, ctxs[i], got, v)
			}
		}
		if err := c.EndRun("test run", &r, len(vals)); err != nil || c.Done("test") != nil {
			t.Fatalf("rANS %v: %v, %d bytes left", rans, err, c.Len())
		}
	}
}

// TestChainTails: chains of 0, 1, 2, 3 and 40 bytes round-trip in either kind
// of run, their last two values under the tail contexts alone: the tail
// values, 250 and up, hold no other context's table, a chain of one is its
// last value and a chain of two its tail, and ChainContext names the context
// every value was counted under.
func TestChainTails(t *testing.T) {
	long := make([]byte, 40)
	for i := range long[:38] {
		long[i] = byte(i % 5)
	}
	long[38], long[39] = 254, 255
	chains := [][]byte{{}, {250}, {251, 252}, {1, 251, 253}, long, {3}, {2, 2}}
	h := NewContextHistogram(ChainContexts)
	for _, ch := range chains {
		h.AddChain(ch)
	}
	for ctx, hc := range h.h {
		if hc == nil {
			continue
		}
		for v := 250; v < 256; v++ {
			if hc.small[v] != 0 && ctx != ChainSecondLast && ctx != ChainLast {
				t.Errorf("context %d counts the tail value %d", ctx, v)
			}
		}
	}
	want := map[int][]byte{} // each context's values, as ChainContext names them
	for _, ch := range chains {
		for i, v := range ch {
			want[ChainContext(ch, i)] = append(want[ChainContext(ch, i)], v)
		}
	}
	if !slices.Equal(want[ChainLast], []byte{250, 252, 253, 255, 3, 2}) || !slices.Equal(want[ChainSecondLast], []byte{251, 251, 254, 2}) || !slices.Equal(want[0], []byte{1, 0}) {
		t.Errorf("ChainContext puts %v last, %v second to last, %v first", want[ChainLast], want[ChainSecondLast], want[0])
	}
	for ctx, vs := range want {
		n := uint64(0)
		for _, v := range vs {
			n += h.h[ctx].small[v]
		}
		if n < uint64(len(vs)) {
			t.Errorf("context %d: AddChain counted %d of its %d values", ctx, n, len(vs))
		}
	}
	lens := make([]int, len(chains))
	for i, ch := range chains {
		lens[i] = len(ch)
	}
	for _, rans := range []bool{false, true} {
		got, err := decodeChains(appendChains(h.Encoder(rans), chains, rans), lens, rans)
		if err != nil || !slices.EqualFunc(got, chains, bytes.Equal) {
			t.Errorf("rANS %v: %v, %v, want %v", rans, got, err, chains)
		}
	}
}

// TestChainWithoutTable: a value whose context has no table stops Chain with
// false, on the fast path of direct tables and on the general one, in either
// kind of run, and so does a tail value whose context has none, though the
// other tail context's table, and the table of the context the value would
// have before the tail, hold it.
func TestChainWithoutTable(t *testing.T) {
	for _, rans := range []bool{false, true} {
		for _, ctx := range []int{ChainSecondLast, ChainLast} {
			if got, err := decodeChains(withoutTail(ctx, rans), []int{4}, rans); err != errNoTable {
				t.Errorf("rANS %v, context %d has no table: read %v, %v", rans, ctx, got, err)
			}
		}
	}
	for _, run := range [][]byte{{1, 2, 3, 4, 5, 6, 7, 8}, {1, 200, 3}} {
		for _, rans := range []bool{false, true} {
			h := NewContextHistogram(ChainContexts)
			h.AddChain(run)
			e := h.Encoder(rans)
			w := NewRunWriter(rans)
			w.Start(nil)
			e.PutChain(&w, run)
			b := w.EndRun(len(run))
			// The same tables, but the run read one value further on.
			c := NewCursor(append(e.AppendTables(nil), b...), errTest)
			d, err := c.ReadContexts("test", ChainContexts, 255)
			if err != nil {
				t.Fatal(err)
			}
			d.Build(rans)
			r, err := c.Run("test run", len(run), rans)
			if err != nil {
				t.Fatal(err)
			}
			if d.Chain(&r, make([]byte, len(run)+1)) {
				t.Errorf("%v: the value after the last has no table, Chain read it", run)
			}
		}
	}
}

// TestContextLookupFits: tables that would ask for more lookup than a
// decoder allows are shortened until they fit, and still round-trip, under
// Huffman tables and under rANS ones, whose scales are lowered. Every context
// holds 40 symbols counted 1 to 96 times (Fibonacci numbers modulo 97), whose
// codes run to 10 bits: 256 such tables would ask for 512 KiB.
func TestContextLookupFits(t *testing.T) {
	const contexts = ChainContexts - 1 // not a chain: every table gets a lookup
	h := NewContextHistogram(contexts)
	var ctxs []int
	var vals []uint64
	for ctx := range contexts {
		a, b := uint64(1), uint64(1)
		for v := uint64(0); v < 40; v++ {
			for range a % 97 { // the tail of the sequence, kept small
				h.Add(ctx, v)
				ctxs, vals = append(ctxs, ctx), append(vals, v)
			}
			a, b = b, a+b
		}
	}
	for _, rans := range []bool{false, true} {
		unfit := 0
		for _, hc := range h.h {
			unfit += hc.Encoder(rans).lookup()
		}
		e := h.Encoder(rans)
		total := 0
		for _, enc := range e.encs {
			total += enc.lookup()
		}
		if unfit <= MaxContextLookup || total > MaxContextLookup || total < MaxContextLookup/2 {
			t.Errorf("rANS %v: the tables ask for %d lookup bytes, %d before they were fitted, budget %d", rans, total, unfit, MaxContextLookup)
		}
		w := NewRunWriter(rans)
		w.Start(e.AppendTables(nil))
		for i, v := range vals {
			e.For(ctxs[i]).Put(&w, v)
		}
		c := NewCursor(w.EndRun(len(vals)), errTest)
		d, err := c.ReadContexts("test", contexts, 255)
		if err != nil {
			t.Fatal(err)
		}
		d.Build(rans)
		r, err := c.Run("test run", len(vals), rans)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if got := d.For(ctxs[i]).Next(&r); got != v {
				t.Fatalf("rANS %v: value %d under context %d: %d, want %d", rans, i, ctxs[i], got, v)
			}
		}
		if err := c.EndRun("test run", &r, len(vals)); err != nil {
			t.Fatalf("rANS %v: %v", rans, err)
		}
	}
}
