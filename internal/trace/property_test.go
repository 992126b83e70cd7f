package trace

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"flowzip/internal/pkt"
)

func traceFromRaw(raw []uint32) *Trace {
	tr := New("prop")
	for _, v := range raw {
		tr.Append(pkt.Packet{
			Timestamp:  time.Duration(v%1e6) * time.Microsecond,
			SrcIP:      pkt.IPv4(v * 2654435761),
			DstIP:      pkt.IPv4(v ^ 0xabcdef),
			SrcPort:    uint16(v),
			DstPort:    80,
			Proto:      pkt.ProtoTCP,
			Flags:      pkt.FlagACK,
			TTL:        64,
			PayloadLen: uint16(v % 1400),
		})
	}
	return tr
}

// Property: Sort is idempotent and preserves the multiset of packets.
func TestQuickSortPreservesPackets(t *testing.T) {
	f := func(raw []uint32) bool {
		tr := traceFromRaw(raw)
		count := map[pkt.Packet]int{}
		for _, p := range tr.Packets {
			count[p]++
		}
		tr.Sort()
		if !tr.IsSorted() {
			return false
		}
		for _, p := range tr.Packets {
			count[p]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		tr2 := tr.Clone()
		tr2.Sort()
		for i := range tr.Packets {
			if tr.Packets[i] != tr2.Packets[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Slice partitions — slicing at any boundary splits the sorted
// trace into two disjoint, complete halves.
func TestQuickSlicePartition(t *testing.T) {
	f := func(raw []uint32, cutRaw uint32) bool {
		tr := traceFromRaw(raw)
		tr.Sort()
		cut := time.Duration(cutRaw%1e6) * time.Microsecond
		maxT := tr.Duration() + time.Second
		left := tr.Slice(0, cut)
		right := tr.Slice(cut, maxT+cut)
		return left.Len()+right.Len() == tr.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: TSH and pcap round trips preserve arbitrary packet multisets.
func TestQuickFormatsRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) > 100 {
			raw = raw[:100]
		}
		tr := traceFromRaw(raw)
		tr.Sort()
		for _, format := range []Format{FormatTSH, FormatPCAP} {
			var buf bytes.Buffer
			if err := tr.Write(&buf, format); err != nil {
				return false
			}
			back, err := read(&buf, format, "x", 0)
			if err != nil || back.Len() != tr.Len() {
				return false
			}
			for i := range tr.Packets {
				if back.Packets[i] != tr.Packets[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
