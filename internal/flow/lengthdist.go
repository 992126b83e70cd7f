package flow

import "flowzip/internal/pkt"

// LengthDist is an empirical flow-length distribution: p_n, the probability
// that a flow has n packets. It backs the paper's Section 3 statistics
// ("98 percent of the flows have less than 51 packets ... 75 percent of all
// Web packets ... 80 percent of the bytes") and the analytic compression
// models of Section 5.
type LengthDist struct {
	// Counts[n] is the number of flows with exactly n packets.
	Counts map[int]int64
	// PacketsAt[n] is n*Counts[n]; BytesAt[n] accumulates wire bytes.
	PacketsAt map[int]int64
	BytesAt   map[int]int64

	TotalFlows   int64
	TotalPackets int64
	TotalBytes   int64
}

// newLengthDist returns an empty distribution.
func newLengthDist() *LengthDist {
	return &LengthDist{
		Counts:    make(map[int]int64),
		PacketsAt: make(map[int]int64),
		BytesAt:   make(map[int]int64),
	}
}

// Add records a flow of n packets and the given wire bytes.
func (d *LengthDist) Add(n int, bytes int64) {
	d.Counts[n]++
	d.PacketsAt[n] += int64(n)
	d.BytesAt[n] += bytes
	d.TotalFlows++
	d.TotalPackets += int64(n)
	d.TotalBytes += bytes
}

// MeasureLengths assembles packets into flows, as Assemble does, and builds
// the distribution of their lengths and wire bytes (header + payload).
//
// A Flow keeps no byte count, so the packets are walked twice: once through a
// table, which gives each key's flow lengths in the order the flows opened,
// and once to sum the bytes. A key's flows follow one another — the next one
// opens only after the last has closed — so each packet belongs to the
// earliest flow of its key that is not yet full.
func MeasureLengths(packets []pkt.Packet) *LengthDist {
	type keyFlows struct {
		lens  []int // the key's flow lengths, earliest first
		n     int   // packets credited to lens[0] so far
		bytes int64 // and their wire bytes
	}
	byKey := make(map[pkt.FlowKey]*keyFlows)
	var t *Table
	t = NewTable(func(f *Flow) {
		kf := byKey[f.Key]
		if kf == nil {
			kf = &keyFlows{}
			byKey[f.Key] = kf
		}
		kf.lens = append(kf.lens, f.Len())
		t.Recycle(f)
	})
	for i := range packets {
		t.Add(&packets[i])
	}
	t.Flush()
	d := newLengthDist()
	for i := range packets {
		p := &packets[i]
		key, _ := p.KeyDir()
		kf := byKey[key]
		kf.n++
		kf.bytes += pkt.HeaderBytes + int64(p.PayloadLen)
		if kf.n == kf.lens[0] {
			d.Add(kf.n, kf.bytes)
			kf.lens, kf.n, kf.bytes = kf.lens[1:], 0, 0
		}
	}
	return d
}

// P returns p_n.
func (d *LengthDist) P(n int) float64 {
	if d.TotalFlows == 0 {
		return 0
	}
	return float64(d.Counts[n]) / float64(d.TotalFlows)
}

// FlowFracBelow returns the fraction of flows with fewer than n packets.
func (d *LengthDist) FlowFracBelow(n int) float64 {
	if d.TotalFlows == 0 {
		return 0
	}
	var c int64
	for length, count := range d.Counts {
		if length < n {
			c += count
		}
	}
	return float64(c) / float64(d.TotalFlows)
}

// PacketFracBelow returns the fraction of packets carried by flows with
// fewer than n packets.
func (d *LengthDist) PacketFracBelow(n int) float64 {
	if d.TotalPackets == 0 {
		return 0
	}
	var c int64
	for length, pkts := range d.PacketsAt {
		if length < n {
			c += pkts
		}
	}
	return float64(c) / float64(d.TotalPackets)
}

// ByteFracBelow returns the fraction of bytes carried by flows with fewer
// than n packets.
func (d *LengthDist) ByteFracBelow(n int) float64 {
	if d.TotalBytes == 0 {
		return 0
	}
	var c int64
	for length, b := range d.BytesAt {
		if length < n {
			c += b
		}
	}
	return float64(c) / float64(d.TotalBytes)
}

// MeanLength returns the mean packets per flow.
func (d *LengthDist) MeanLength() float64 {
	if d.TotalFlows == 0 {
		return 0
	}
	return float64(d.TotalPackets) / float64(d.TotalFlows)
}

// MaxLength returns the largest observed flow length.
func (d *LengthDist) MaxLength() int {
	maxN := 0
	for n := range d.Counts {
		if n > maxN {
			maxN = n
		}
	}
	return maxN
}

// Lengths returns the observed lengths in ascending order.
func (d *LengthDist) Lengths() []int {
	out := make([]int, 0, len(d.Counts))
	for n := range d.Counts {
		out = append(out, n)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
