package wire

import (
	"container/heap"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// encodeColumn writes xs as one column: the table, then the run.
func encodeColumn(xs []uint64) []byte {
	var h Histogram
	for _, x := range xs {
		h.Add(x)
	}
	e := h.Encoder()
	w := NewBitWriter(e.AppendTable(nil))
	for _, x := range xs {
		e.Put(&w, x)
	}
	return w.EndRun(len(xs))
}

// decodeColumn reads n values of a column whose values go up to most.
func decodeColumn(b []byte, n int, most uint64) ([]uint64, error) {
	c := NewCursor(b, errTest)
	d, err := c.ReadDecoder("test", most)
	if err != nil {
		return nil, err
	}
	if n > 0 && d.Empty() {
		return nil, c.Errorf("values, but an empty table")
	}
	r, err := c.Bits("test run", n)
	if err != nil {
		return nil, err
	}
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = d.Next(&r)
	}
	if err := c.EndBits("test run", &r, n); err != nil {
		return nil, err
	}
	return xs, c.Done("test column")
}

func roundTrip(t *testing.T, name string, xs []uint64) []byte {
	t.Helper()
	b := encodeColumn(xs)
	got, err := decodeColumn(b, len(xs), math.MaxUint64)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !slices.Equal(got, xs) {
		t.Fatalf("%s: %d values do not round-trip", name, len(xs))
	}
	return b
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

func TestColumnRoundTrip(t *testing.T) {
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
	}
	for name, xs := range cases {
		b := roundTrip(t, name, xs)
		t.Logf("%-22s %5d values, mode %d: %6d bytes, order-0 entropy %8.1f", name, len(xs), b[0], len(b), entropyBytes(xs))
	}
	// A column of one symbol costs its padding, whatever the symbol.
	if b := roundTrip(t, "one symbol", cases["one symbol"]); len(b) > 4+5000/MaxItemsPerByte {
		t.Errorf("5000 equal values took %d bytes", len(b))
	}
	// A small alphabet is coded directly and lands within a few percent of its entropy.
	for _, name := range []string{"zipf index", "bytes", "sparse"} {
		b := roundTrip(t, name, cases[name])
		if h := entropyBytes(cases[name]); b[0] != modeDirect || float64(len(b)) > 1.03*h+700 {
			t.Errorf("%s: mode %d, %d bytes against an entropy of %.0f", name, b[0], len(b), h)
		}
	}
	// More symbols than a table holds, or values past what one names, are
	// coded by class, near bit length plus a little.
	for _, name := range []string{"wide", "every width", "9000 symbols", "past the direct limit"} {
		if b := roundTrip(t, name, cases[name]); b[0] != modeClass {
			t.Errorf("%s: mode %d, want class", name, b[0])
		}
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

// table builds a stored table from a mode and (symbol delta, length) pairs.
func table(mode byte, n uint64, entries ...[2]uint64) []byte {
	b := binary.AppendUvarint([]byte{mode}, n)
	for _, e := range entries {
		b = binary.AppendUvarint(b, e[0]<<4|e[1])
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
		"unknown mode":                table(2, 0),
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
	}
	for name, b := range cases {
		c := NewCursor(b, errTest)
		if _, err := c.ReadDecoder("test", 255); !errors.Is(err, errTest) {
			t.Errorf("%s: err = %v, want the cursor's sentinel", name, err)
		}
	}
	// What the rejected tables are one step away from.
	for name, b := range map[string][]byte{
		"empty":           table(modeDirect, 0),
		"one symbol":      table(modeDirect, 1, [2]uint64{255, 0}),
		"two symbols":     table(modeDirect, 2, [2]uint64{0, 1}, [2]uint64{255, 1}),
		"the last class":  table(modeClass, 2, [2]uint64{0, 1}, [2]uint64{8, 1}),
		"the whole limit": table(modeDirect, 3, [2]uint64{0, 1}, [2]uint64{1, 2}, [2]uint64{1, 2}),
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
		if _, err := decodeColumn(b, n, 255); !errors.Is(err, errTest) {
			t.Errorf("%d zero-bit values in four bytes: err = %v", n, err)
		}
	}
	if xs, err := decodeColumn(append(slices.Clone(oneSymbol), 0, 0, 0, 0), 32, 255); err != nil || len(xs) != 32 || xs[31] != 7 {
		t.Errorf("32 zero-bit values in four bytes: %v, %v", xs, err)
	}
	// Eight one-bit codes fit a byte; a ninth does not.
	twoSymbols := table(modeDirect, 2, [2]uint64{0, 1}, [2]uint64{1, 1})
	if xs, err := decodeColumn(append(slices.Clone(twoSymbols), 0xa5), 8, 255); err != nil || !slices.Equal(xs, []uint64{1, 0, 1, 0, 0, 1, 0, 1}) {
		t.Errorf("eight one-bit values: %v, %v", xs, err)
	}
	if _, err := decodeColumn(append(slices.Clone(twoSymbols), 0xa5), 9, 255); !errors.Is(err, errTest) {
		t.Errorf("nine one-bit values in one byte: err = %v", err)
	}
	// Twelve-bit codes: the count fits the run's bytes, the bits do not.
	long := table(modeDirect, 13, [2]uint64{0, 1}, [2]uint64{1, 2}, [2]uint64{1, 3}, [2]uint64{1, 4}, [2]uint64{1, 5}, [2]uint64{1, 6},
		[2]uint64{1, 7}, [2]uint64{1, 8}, [2]uint64{1, 9}, [2]uint64{1, 10}, [2]uint64{1, 11}, [2]uint64{1, 12}, [2]uint64{1, 12})
	if _, err := decodeColumn(append(slices.Clone(long), 0xff, 0xff, 0xff), 8, 255); !errors.Is(err, errTest) {
		t.Errorf("eight twelve-bit values in three bytes: err = %v", err)
	}
}

// FuzzColumn holds the coder to decode(encode(xs)) == xs on the values the
// input spells, and to failing cleanly — no panic, no loop, no allocation
// beyond MaxItemsPerByte values a byte — when the input is taken as a column.
func FuzzColumn(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Add(binary.AppendUvarint(binary.AppendUvarint([]byte{1, 2, 3, 250}, 1<<40), math.MaxUint64))
	f.Add(encodeColumn([]uint64{1, 0, 1, 0, 0, 1, 0, 1, 900, 70000}))
	f.Add(append(table(modeDirect, 1, [2]uint64{7, 0}), 0xff, 0xff, 0xff, 0xff, 0x0f))
	f.Add(append(table(modeClass, 2, [2]uint64{63, 1}, [2]uint64{1, 1}), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, b []byte) {
		// The input as values: alternately a byte and a uvarint.
		var xs []uint64
		for c := NewCursor(b, errTest); c.Len() > 0; {
			one, _ := c.Bytes("byte", 1)
			xs = append(xs, uint64(one[0]))
			if v, err := c.Uvarint("value"); err == nil {
				xs = append(xs, v)
			}
		}
		got, err := decodeColumn(encodeColumn(xs), len(xs), math.MaxUint64)
		if err != nil || !slices.Equal(got, xs) {
			t.Fatalf("%d values do not round-trip: %v", len(xs), err)
		}
		// The input as a column of as many values as its bytes could hold.
		decodeColumn(b, len(b)*MaxItemsPerByte, math.MaxUint64)
		decodeColumn(b, len(b), 255)
	})
}

// TestContextRoundTrip: a byte column coded under the byte before it, in all
// ChainContexts contexts, beside contexts that hold no values (no table, no
// bytes), contexts of one symbol (zero bits a value) and direct and class
// tables side by side, decodes to what was written; so does a wide column
// coded under a context given with each value.
func TestContextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Runs of bytes: every value in turn and then 255, 0, so every context
	// holds values; after 7 always 8 (one symbol); after 8 one of a few
	// values, which a direct table codes; after 11 uniform noise, which a
	// class table codes cheaper than a 256-symbol one.
	up := make([]byte, 256)
	for i := range up {
		up[i] = byte(i)
	}
	runs := [][]byte{up, {255, 0}, {}, {7, 8, 7, 8}}
	for i := 0; i < 300; i++ {
		run := []byte{7}
		for len(run) < 1+rng.Intn(60) {
			switch prev := run[len(run)-1]; {
			case prev == 7:
				run = append(run, 8)
			case prev == 8:
				run = append(run, []byte{7, 11, 12}[rng.Intn(3)])
			case prev == 11:
				run = append(run, byte(rng.Intn(256)))
			default:
				run = append(run, []byte{7, 8, 11}[rng.Intn(3)])
			}
		}
		runs = append(runs, run)
	}
	h := NewContextHistogram(ChainContexts)
	for _, run := range runs {
		h.AddChain(run)
	}
	e := h.Encoder()
	b := e.AppendTables(nil)
	items := 0
	w := NewBitWriter(b)
	for _, run := range runs {
		e.PutChain(&w, run)
		items += len(run)
	}
	b = w.EndRun(items)

	c := NewCursor(b, errTest)
	d, err := c.ReadContexts("test", ChainContexts, 255)
	if err != nil {
		t.Fatal(err)
	}
	if d.Tables() != ChainContexts {
		t.Errorf("%d tables, want one for each of the %d contexts", d.Tables(), ChainContexts)
	}
	if d.Mode() != "mixed" || d.For(7+1).Mode() != "none" || d.For(8+1).Mode() != "huffman" || d.For(11+1).Mode() != "class" {
		t.Errorf("modes %s, after 7 %s, after 8 %s, after 11 %s", d.Mode(), d.For(7+1).Mode(), d.For(8+1).Mode(), d.For(11+1).Mode())
	}
	r, err := c.Bits("test run", items)
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range runs {
		got := make([]byte, len(run))
		if !d.Chain(&r, got) || !slices.Equal(got, run) {
			t.Fatalf("run %d: %v, want %v", i, got, run)
		}
	}
	if err := c.EndBits("test run", &r, items); err != nil || c.Done("test") != nil {
		t.Fatalf("%v, %d bytes left", err, c.Len())
	}

	// Fewer contexts, wide values, the context given: only the even contexts
	// hold values, and context 2's one value costs nothing.
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
	we := wh.Encoder()
	w = NewBitWriter(we.AppendTables(nil))
	for i, v := range vals {
		we.For(ctxs[i]).Put(&w, v)
	}
	b = w.EndRun(len(vals))
	c = NewCursor(b, errTest)
	if d, err = c.ReadContexts("test", contexts, math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if d.Tables() != contexts/2 || d.For(1) != nil || d.For(2).Mode() != "none" {
		t.Fatalf("%d tables; context 1 has %v, context 2 is coded %s", d.Tables(), d.For(1), d.For(2).Mode())
	}
	if r, err = c.Bits("test run", len(vals)); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if got := d.For(ctxs[i]).Next(&r); got != v {
			t.Fatalf("value %d under context %d: %d, want %d", i, ctxs[i], got, v)
		}
	}
	if err := c.EndBits("test run", &r, len(vals)); err != nil || c.Done("test") != nil {
		t.Fatalf("%v, %d bytes left", err, c.Len())
	}
}

// TestChainWithoutTable: a value whose context has no table stops Chain with
// false, on the fast path of direct tables and on the general one.
func TestChainWithoutTable(t *testing.T) {
	for _, run := range [][]byte{{1, 2, 3, 4, 5, 6, 7, 8}, {1, 200, 3}} {
		h := NewContextHistogram(ChainContexts)
		h.AddChain(run)
		e := h.Encoder()
		w := NewBitWriter(nil)
		e.PutChain(&w, run)
		b := w.EndRun(len(run))
		// The same tables, but the run read one value further on.
		c := NewCursor(append(e.AppendTables(nil), b...), errTest)
		d, err := c.ReadContexts("test", ChainContexts, 255)
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Bits("test run", len(run))
		if err != nil {
			t.Fatal(err)
		}
		if d.Chain(&r, make([]byte, len(run)+1)) {
			t.Errorf("%v: the value after the last has no table, Chain read it", run)
		}
	}
}

// TestContextLookupFits: tables that would ask for more lookup than a
// decoder allows are shortened until they fit, and still round-trip. Every
// context holds 40 symbols counted 1 to 96 times (Fibonacci numbers modulo
// 97), whose codes run to 10 bits: 257 such tables would ask for 514 KiB.
func TestContextLookupFits(t *testing.T) {
	h := NewContextHistogram(ChainContexts)
	var ctxs []int
	var vals []uint64
	for ctx := range ChainContexts {
		a, b := uint64(1), uint64(1)
		for v := uint64(0); v < 40; v++ {
			for range a % 97 { // the tail of the sequence, kept small
				h.Add(ctx, v)
				ctxs, vals = append(ctxs, ctx), append(vals, v)
			}
			a, b = b, a+b
		}
	}
	unfit := 0
	for _, hc := range h.h {
		unfit += hc.Encoder().lookup()
	}
	e := h.Encoder()
	total := 0
	for _, enc := range e.encs {
		total += enc.lookup()
	}
	if unfit <= MaxContextLookup || total > MaxContextLookup || total < MaxContextLookup/2 {
		t.Errorf("the tables ask for %d lookup bytes, %d before they were fitted, budget %d", total, unfit, MaxContextLookup)
	}
	w := NewBitWriter(e.AppendTables(nil))
	for i, v := range vals {
		e.For(ctxs[i]).Put(&w, v)
	}
	c := NewCursor(w.EndRun(len(vals)), errTest)
	d, err := c.ReadContexts("test", ChainContexts, 255)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Bits("test run", len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if got := d.For(ctxs[i]).Next(&r); got != v {
			t.Fatalf("value %d under context %d: %d, want %d", i, ctxs[i], got, v)
		}
	}
}
