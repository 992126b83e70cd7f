package flow

import (
	"testing"
	"testing/quick"
	"time"

	"flowzip/internal/pkt"
)

// Property: assembly conserves packets — every packet lands in exactly one
// flow — and per-flow packets stay in timestamp order.
func TestQuickAssembleConservation(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) > 300 {
			raw = raw[:300]
		}
		var packets []pkt.Packet
		ts := time.Duration(0)
		for _, v := range raw {
			ts += time.Duration(v%10000+1) * time.Microsecond
			p := pkt.Packet{
				Timestamp: ts,
				SrcIP:     pkt.IPv4(0x0a000000 | v%7),
				DstIP:     pkt.IPv4(0x14000000 | (v>>3)%5),
				SrcPort:   uint16(1024 + v%11),
				DstPort:   80,
				Proto:     pkt.ProtoTCP,
				Flags:     pkt.TCPFlags(v >> 8),
				TTL:       64,
			}
			packets = append(packets, p)
		}
		flows := Assemble(packets)
		total := 0
		for _, fl := range flows {
			total += fl.Len()
			_, gaps := wordsOf(fl)
			for _, g := range gaps[1:] {
				if g < 0 {
					return false
				}
			}
		}
		return total == len(packets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: vector values always sit in [MinF, MaxF] for the default
// weights, whatever the flag combination.
func TestQuickVectorRange(t *testing.T) {
	w := DefaultWeights
	f := func(flags []uint8) bool {
		if len(flags) == 0 {
			return true
		}
		var packets []pkt.Packet
		ts := time.Duration(0)
		for i, fb := range flags {
			ts += time.Millisecond
			dir := i%2 == 0
			p := pkt.Packet{
				Timestamp: ts, Proto: pkt.ProtoTCP, Flags: pkt.TCPFlags(fb), TTL: 64,
				PayloadLen: uint16(int(fb) * 7 % 1500),
			}
			if dir {
				p.SrcIP, p.DstIP = pkt.Addr(10, 0, 0, 1), pkt.Addr(20, 0, 0, 1)
				p.SrcPort, p.DstPort = 5000, 80
			} else {
				p.SrcIP, p.DstIP = pkt.Addr(20, 0, 0, 1), pkt.Addr(10, 0, 0, 1)
				p.SrcPort, p.DstPort = 80, 5000
			}
			packets = append(packets, p)
		}
		for _, fl := range Assemble(packets) {
			for _, fv := range fl.Vector(w) {
				if int(fv) < w.F(FlagClassSYN, DepDependent, SizeClassEmpty) || int(fv) > w.MaxF() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the first packet of every assembled flow is never classified as
// dependent (there is nothing to depend on).
func TestQuickFirstPacketNotDependent(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		var packets []pkt.Packet
		ts := time.Duration(0)
		for _, v := range raw {
			ts += time.Microsecond
			packets = append(packets, pkt.Packet{
				Timestamp: ts,
				SrcIP:     pkt.IPv4(v), DstIP: pkt.IPv4(v >> 7),
				SrcPort: uint16(v % 9), DstPort: uint16((v >> 4) % 9),
				Proto: pkt.ProtoTCP, Flags: pkt.FlagACK, TTL: 64,
			})
		}
		for _, fl := range Assemble(packets) {
			if words, _ := wordsOf(fl); fl.Len() > 0 && words[0].depClass() != DepNotDependent {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
