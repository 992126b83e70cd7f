package baseline

import (
	"bytes"
	"testing"
	"time"

	"flowzip/internal/flowgen"
	"flowzip/internal/trace"
	"flowzip/internal/tsh"
)

func testTrace(seed uint64, flows int) *trace.Trace {
	cfg := flowgen.DefaultWebConfig()
	cfg.Seed = seed
	cfg.Flows = flows
	cfg.Duration = 20 * time.Second
	return flowgen.Web(cfg)
}

func TestOriginalSizeIsTSH(t *testing.T) {
	tr := testTrace(1, 200)
	sz, err := Size(Original{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if sz != tsh.Size(tr.Len()) {
		t.Fatalf("original size %d, want %d", sz, tsh.Size(tr.Len()))
	}
	if _, r, _ := Ratio(Original{}, tr); r != 1.0 {
		t.Fatalf("original ratio = %v, want 1", r)
	}
}

func TestGZIPRatioNearPaper(t *testing.T) {
	tr := testTrace(2, 2000)
	_, r, err := Ratio(GZIP{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~50%. Synthetic headers are a bit more regular than captures;
	// accept the 25..65% band.
	if r < 0.25 || r > 0.65 {
		t.Fatalf("gzip ratio = %v, want ~0.5", r)
	}
}

func TestVJRatioNearPaper(t *testing.T) {
	tr := testTrace(3, 2000)
	_, r, err := Ratio(NewVJ(), tr)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~30%.
	if r < 0.15 || r > 0.45 {
		t.Fatalf("vj ratio = %v, want ~0.3", r)
	}
}

func TestPeuhkuriRatioNearPaper(t *testing.T) {
	tr := testTrace(4, 2000)
	_, r, err := Ratio(NewPeuhkuri(), tr)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~16%.
	if r < 0.08 || r > 0.28 {
		t.Fatalf("peuhkuri ratio = %v, want ~0.16", r)
	}
}

func TestProposedRatioSmallest(t *testing.T) {
	tr := testTrace(5, 2000)
	_, r, err := Ratio(Proposed{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if r > 0.10 {
		t.Fatalf("proposed ratio = %v, want < 0.10", r)
	}
}

func TestMethodOrderingMatchesPaper(t *testing.T) {
	// The whole point of Figure 1: Original > GZIP > VJ > Peuhkuri > Proposed.
	tr := testTrace(6, 3000)
	var ratios []float64
	for _, m := range All() {
		_, r, err := Ratio(m, tr)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		ratios = append(ratios, r)
	}
	for i := 1; i < len(ratios); i++ {
		if ratios[i] >= ratios[i-1] {
			t.Fatalf("ordering violated at %s: %v", All()[i].Name(), ratios)
		}
	}
}

func TestVJRoundTripLossless(t *testing.T) {
	tr := testTrace(7, 500)
	vj := NewVJ()
	var buf bytes.Buffer
	if _, err := vj.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := vj.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("decoded %d packets, want %d", back.Len(), tr.Len())
	}
	for i := range tr.Packets {
		want := tr.Packets[i]
		got := back.Packets[i]
		// Timestamps quantize to µs.
		wq := want.Timestamp / time.Microsecond
		gq := got.Timestamp / time.Microsecond
		if wq != gq {
			t.Fatalf("packet %d timestamp %v vs %v", i, got.Timestamp, want.Timestamp)
		}
		got.Timestamp, want.Timestamp = 0, 0
		if got != want {
			t.Fatalf("packet %d mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestVJDecodeErrors(t *testing.T) {
	vj := NewVJ()
	// Delta record for unknown CID.
	bad := []byte{0x00, 0x00, 0x00, 0x05, 0x00, 0x01}
	if _, err := vj.Decode(bytes.NewReader(bad)); err == nil {
		t.Fatal("unknown cid must error")
	}
}

func TestVJFullRecordFallbacks(t *testing.T) {
	// TTL change and huge time gaps must still round-trip (via full records).
	tr := testTrace(8, 50)
	if tr.Len() < 10 {
		t.Skip("trace too small")
	}
	tr.Packets[5].TTL = 7
	for i := 6; i < tr.Len(); i++ {
		tr.Packets[i].Timestamp += 3 * time.Hour
	}
	vj := NewVJ()
	var buf bytes.Buffer
	if _, err := vj.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := vj.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("decoded %d packets, want %d", back.Len(), tr.Len())
	}
	if back.Packets[5].TTL != 7 {
		t.Fatal("TTL change lost")
	}
}

func TestPeuhkuriRoundTripPreservedFields(t *testing.T) {
	tr := testTrace(9, 500)
	pz := NewPeuhkuri()
	var buf bytes.Buffer
	if _, err := pz.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := pz.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("decoded %d packets, want %d", back.Len(), tr.Len())
	}
	for i := range tr.Packets {
		want := &tr.Packets[i]
		got := &back.Packets[i]
		if got.Tuple() != want.Tuple() {
			t.Fatalf("packet %d tuple mismatch", i)
		}
		if got.PayloadLen != want.PayloadLen || got.Flags != want.Flags {
			t.Fatalf("packet %d payload/flags mismatch", i)
		}
		wq := want.Timestamp / time.Microsecond
		gq := got.Timestamp / time.Microsecond
		if wq != gq {
			t.Fatalf("packet %d timestamp %v vs %v", i, got.Timestamp, want.Timestamp)
		}
		// Lossy fields zeroed.
		if got.Seq != 0 || got.Ack != 0 || got.Window != 0 {
			t.Fatalf("packet %d lossy fields not zeroed", i)
		}
	}
}

func TestPeuhkuriDecodeErrors(t *testing.T) {
	pz := NewPeuhkuri()
	// Packet record referencing an unknown flow (tag=cid 3<<1, no def).
	bad := []byte{0x06, 0x01, 0x00, 0x10}
	if _, err := pz.Decode(bytes.NewReader(bad)); err == nil {
		t.Fatal("unknown flow must error")
	}
}

func TestEmptyTraceAllMethods(t *testing.T) {
	tr := trace.New("empty")
	for _, m := range All() {
		sz, err := Size(m, tr)
		if err != nil {
			t.Fatalf("%s on empty trace: %v", m.Name(), err)
		}
		if sz < 0 {
			t.Fatalf("%s negative size", m.Name())
		}
	}
	if _, _, err := Ratio(Original{}, tr); err == nil {
		t.Fatal("ratio of empty trace must error")
	}
}
