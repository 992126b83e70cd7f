package flow

import (
	"math"
	"reflect"
	"testing"
	"time"

	"flowzip/internal/flowgen"
	"flowzip/internal/pkt"
)

func TestLengthDistBasics(t *testing.T) {
	d := newLengthDist()
	d.Add(2, 100)
	d.Add(2, 120)
	d.Add(10, 5000)
	if d.TotalFlows != 3 || d.TotalPackets != 14 || d.TotalBytes != 5220 {
		t.Fatalf("totals wrong: %+v", d)
	}
	if p := d.P(2); math.Abs(p-2.0/3.0) > 1e-12 {
		t.Fatalf("P(2) = %v", p)
	}
	if p := d.P(5); p != 0 {
		t.Fatalf("P(5) = %v, want 0", p)
	}
}

func TestFracBelow(t *testing.T) {
	d := newLengthDist()
	d.Add(2, 80)    // short
	d.Add(50, 2000) // short (< 51)
	d.Add(100, 100000)
	if f := d.FlowFracBelow(51); math.Abs(f-2.0/3.0) > 1e-12 {
		t.Fatalf("flow frac = %v", f)
	}
	if f := d.PacketFracBelow(51); math.Abs(f-52.0/152.0) > 1e-12 {
		t.Fatalf("packet frac = %v", f)
	}
	if f := d.ByteFracBelow(51); math.Abs(f-2080.0/102080.0) > 1e-12 {
		t.Fatalf("byte frac = %v", f)
	}
}

func TestFracBelowEmpty(t *testing.T) {
	d := newLengthDist()
	if d.FlowFracBelow(51) != 0 || d.PacketFracBelow(51) != 0 || d.ByteFracBelow(51) != 0 {
		t.Fatal("empty dist fractions must be 0")
	}
	if d.MeanLength() != 0 {
		t.Fatal("empty mean must be 0")
	}
}

func TestMeanAndMax(t *testing.T) {
	d := newLengthDist()
	d.Add(2, 0)
	d.Add(4, 0)
	if m := d.MeanLength(); m != 3 {
		t.Fatalf("mean = %v", m)
	}
	if d.MaxLength() != 4 {
		t.Fatalf("max = %d", d.MaxLength())
	}
}

func TestLengths(t *testing.T) {
	d := newLengthDist()
	d.Add(9, 0)
	d.Add(2, 0)
	d.Add(5, 0)
	d.Add(2, 0)
	got := d.Lengths()
	want := []int{2, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("lengths = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lengths = %v, want %v", got, want)
		}
	}
}

func TestMeasureLengths(t *testing.T) {
	var packets []pkt.Packet
	for i := 0; i < 10; i++ {
		conv := uint32(1) // conversation 0 takes packets 0, 2 and 4, conversation 1 the other 7
		if i < 6 && i%2 == 0 {
			conv = 0
		}
		packets = append(packets, pkt.Packet{
			Timestamp: time.Duration(i) * time.Millisecond, Proto: pkt.ProtoTCP, Flags: pkt.FlagACK,
			SrcIP: pkt.IPv4(0x0a000000 + conv), DstIP: pkt.Addr(20, 0, 0, 1), SrcPort: 1024, DstPort: 80,
		})
	}
	d := MeasureLengths(packets)
	if d.TotalFlows != 2 || d.TotalPackets != 10 || d.Counts[3] != 1 || d.Counts[7] != 1 {
		t.Fatalf("measured: %+v", d)
	}
}

// lengthsByFlow is the reference MeasureLengths is held to. The packets go
// through a collect-mode table one at a time, and each packet's wire bytes
// are credited to the flow that took it: the open flow of its key after Add,
// or, when Add closed that flow, the one it just emitted. That is where the
// table summed a flow's bytes while Flow carried them.
func lengthsByFlow(packets []pkt.Packet) *LengthDist {
	tbl := NewTable(nil)
	bytes := map[*Flow]int64{}
	for i := range packets {
		p := &packets[i]
		tbl.Add(p)
		fl := tbl.last
		if key, _ := p.KeyDir(); fl == nil || fl.Key != key {
			fl = tbl.completed[len(tbl.completed)-1]
		}
		bytes[fl] += pkt.HeaderBytes + int64(p.PayloadLen)
	}
	tbl.Flush()
	d := newLengthDist()
	for _, fl := range tbl.Flows() {
		d.Add(fl.Len(), bytes[fl])
	}
	return d
}

// reuseTrace opens one key three times — closed by a FIN from each side, by
// an RST, and left open for the flush — with a second conversation
// interleaved, then a third key whose second packet is further from its first
// than a packet word's gap holds, so the table closes the flow there and
// opens another under the same key.
func reuseTrace() []pkt.Packet {
	cli, srv := pkt.Addr(10, 0, 0, 1), pkt.Addr(20, 0, 0, 1)
	other := pkt.Addr(10, 0, 0, 2)
	var out []pkt.Packet
	add := func(fromCli bool, src pkt.IPv4, flags pkt.TCPFlags, payload uint16) {
		p := pkt.Packet{
			Timestamp: time.Duration(len(out)) * time.Millisecond, Proto: pkt.ProtoTCP, Flags: flags, PayloadLen: payload,
			SrcIP: src, DstIP: srv, SrcPort: 1024, DstPort: 80,
		}
		if !fromCli {
			p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = p.DstIP, p.SrcIP, p.DstPort, p.SrcPort
		}
		out = append(out, p)
	}
	add(true, cli, pkt.FlagSYN, 0)
	add(false, cli, pkt.FlagSYN|pkt.FlagACK, 0)
	add(true, other, pkt.FlagSYN, 3)
	add(true, cli, pkt.FlagFIN|pkt.FlagACK, 10)
	add(false, cli, pkt.FlagFIN|pkt.FlagACK, 20)
	add(true, cli, pkt.FlagSYN, 5)
	add(false, other, pkt.FlagACK, 40)
	add(false, cli, pkt.FlagACK, 300)
	add(true, cli, pkt.FlagRST, 0)
	add(true, cli, pkt.FlagACK, 7)
	add(true, other, pkt.FlagACK, 1)
	far := pkt.Addr(10, 0, 0, 3)
	add(true, far, pkt.FlagSYN, 11)
	add(true, far, pkt.FlagACK, 13)
	out[len(out)-1].Timestamp += 1 << 58
	return out
}

// MeasureLengths assembles the packets itself and sums each flow's bytes off
// them; it must give what summing them inside the table gave, flow for flow.
func TestMeasureLengthsMatchesTable(t *testing.T) {
	web := flowgen.DefaultWebConfig()
	web.Seed, web.Flows, web.Duration = 3, 2000, 10*time.Second
	p2p := flowgen.DefaultP2PConfig()
	p2p.Seed, p2p.Flows, p2p.Duration = 4, 300, 10*time.Second
	for name, packets := range map[string][]pkt.Packet{
		"web":   flowgen.Web(web).Packets,
		"p2p":   flowgen.P2P(p2p).Packets,
		"reuse": reuseTrace(),
	} {
		got, want := MeasureLengths(packets), lengthsByFlow(packets)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: MeasureLengths %d flows, %d packets, %d bytes; the table's sums %d, %d, %d",
				name, got.TotalFlows, got.TotalPackets, got.TotalBytes, want.TotalFlows, want.TotalPackets, want.TotalBytes)
		}
		if got.TotalPackets != int64(len(packets)) {
			t.Errorf("%s: %d packets measured of %d", name, got.TotalPackets, len(packets))
		}
	}
	if d := MeasureLengths(reuseTrace()); d.TotalFlows != 6 || d.Counts[4] != 1 || d.Counts[3] != 2 || d.Counts[1] != 3 {
		t.Errorf("reuse: lengths %v, want one 4-packet flow, two of 3 and three of 1", d.Counts)
	}
}
