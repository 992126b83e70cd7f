package pkt

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func samplePacket() Packet {
	return Packet{
		Timestamp:  1500 * time.Millisecond,
		SrcIP:      Addr(10, 1, 2, 3),
		DstIP:      Addr(192, 168, 0, 80),
		SrcPort:    33000,
		DstPort:    80,
		Proto:      ProtoTCP,
		Flags:      FlagSYN,
		Seq:        1000,
		Ack:        0,
		Window:     65535,
		TTL:        64,
		IPID:       7,
		PayloadLen: 0,
	}
}

func TestFlagsString(t *testing.T) {
	f := FlagSYN | FlagACK
	s := f.String()
	if !strings.Contains(s, "SYN") || !strings.Contains(s, "ACK") {
		t.Fatalf("flags string = %q", s)
	}
	if TCPFlags(0).String() != "none" {
		t.Fatalf("zero flags = %q", TCPFlags(0).String())
	}
}

func TestFlagsHas(t *testing.T) {
	f := FlagSYN | FlagACK
	if !f.Has(FlagSYN) || !f.Has(FlagACK) || !f.Has(FlagSYN|FlagACK) {
		t.Fatal("Has failed on set bits")
	}
	if f.Has(FlagFIN) || f.Has(FlagSYN|FlagFIN) {
		t.Fatal("Has matched unset bits")
	}
}

func TestAddrString(t *testing.T) {
	a := Addr(192, 168, 1, 42)
	if a.String() != "192.168.1.42" {
		t.Fatalf("addr string = %q", a.String())
	}
}

func TestTotalLen(t *testing.T) {
	p := samplePacket()
	p.PayloadLen = 100
	if p.TotalLen() != 140 {
		t.Fatalf("total len = %d", p.TotalLen())
	}
}

func TestTupleReverse(t *testing.T) {
	p := samplePacket()
	tup := p.Tuple()
	rev := tup.Reverse()
	if rev.SrcIP != tup.DstIP || rev.DstPort != tup.SrcPort {
		t.Fatalf("reverse broken: %v -> %v", tup, rev)
	}
	if rev.Reverse() != tup {
		t.Fatal("double reverse is not identity")
	}
}

func TestCanonicalBidirectional(t *testing.T) {
	p := samplePacket()
	fwd := p.Tuple().Canonical()
	rev := p.Tuple().Reverse().Canonical()
	if fwd != rev {
		t.Fatalf("both directions must share a key: %v vs %v", fwd, rev)
	}
}

func TestCanonicalTieBreakOnPort(t *testing.T) {
	tup := FiveTuple{SrcIP: Addr(1, 1, 1, 1), DstIP: Addr(1, 1, 1, 1), SrcPort: 9000, DstPort: 80, Proto: ProtoTCP}
	k := tup.Canonical()
	if k.LoPort != 80 || k.HiPort != 9000 {
		t.Fatalf("tie break wrong: %+v", k)
	}
	if tup.Reverse().Canonical() != k {
		t.Fatal("same-IP reverse must canonicalize identically")
	}
}

func TestFromLo(t *testing.T) {
	p := samplePacket() // src 10.x < dst 192.x, so src is Lo
	if !p.FromLo() {
		t.Fatal("expected packet from Lo endpoint")
	}
	q := p
	q.SrcIP, q.DstIP = p.DstIP, p.SrcIP
	q.SrcPort, q.DstPort = p.DstPort, p.SrcPort
	if q.FromLo() {
		t.Fatal("reversed packet must be from Hi endpoint")
	}
}

func TestHashDirectionInvariant(t *testing.T) {
	p := samplePacket()
	h1 := p.Key().Hash()
	h2 := p.Tuple().Reverse().Canonical().Hash()
	if h1 != h2 {
		t.Fatal("hash must be direction invariant")
	}
}

func TestHashSpreads(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		k := FlowKey{LoIP: IPv4(i), HiIP: IPv4(i * 7), LoPort: uint16(i), HiPort: 80, Proto: 6}
		seen[k.Hash()] = true
	}
	if len(seen) < 999 {
		t.Fatalf("hash collides too much: %d distinct of 1000", len(seen))
	}
}

// Property: canonicalization is direction invariant for arbitrary tuples.
func TestQuickCanonicalInvariant(t *testing.T) {
	f := func(sip, dip uint32, sp, dp uint16) bool {
		tup := FiveTuple{SrcIP: IPv4(sip), DstIP: IPv4(dip), SrcPort: sp, DstPort: dp, Proto: ProtoTCP}
		return tup.Canonical() == tup.Reverse().Canonical()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
