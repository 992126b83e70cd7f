// Package netbench re-implements the three benchmark kernels the paper
// takes from Netbench and CommBench — Route, NAT and RTR — around the
// instrumented radix-tree routing core, and provides the runner that
// reproduces the paper's checkpointed per-packet measurement.
//
// All three programs "involve the Radix Tree Routing inside their
// algorithms" (Section 6); they differ in the surrounding per-packet work:
// Route is a pure destination lookup, NAT adds a translation-table access
// per packet, RTR (CommBench's BSD-derived radix-tree routing) walks the
// trie with a heavier per-node access pattern and a final key comparison.
package netbench

import (
	"fmt"
	"slices"

	"flowzip/internal/core"
	"flowzip/internal/memsim"
	"flowzip/internal/pkt"
	"flowzip/internal/radix"
	"flowzip/internal/stats"
	"flowzip/internal/trace"
)

// Kernel is one packet-processing benchmark program.
type Kernel interface {
	// Name labels the kernel in reports.
	Name() string
	// Process handles one packet (the work between the paper's
	// checkpoints).
	Process(p *pkt.Packet)
}

// RouteKernel is Netbench's Route: a longest-prefix-match forward decision
// per packet.
type RouteKernel struct {
	tree      *radix.Tree
	Forwarded int64
	Dropped   int64
}

// NewRoute builds the kernel over the given table; all tree accesses during
// Process go to sink.
func NewRoute(routes []radix.Route, sink memsim.Sink) (*RouteKernel, error) {
	tree, err := radix.BuildTable(routes, sink)
	if err != nil {
		return nil, err
	}
	return &RouteKernel{tree: tree}, nil
}

// Name implements Kernel.
func (*RouteKernel) Name() string { return "Route" }

// Process implements Kernel.
func (k *RouteKernel) Process(p *pkt.Packet) {
	if _, ok := k.tree.Lookup(uint32(p.DstIP)); ok {
		k.Forwarded++
	} else {
		k.Dropped++
	}
}

// natEntry models one translation-table binding.
type natEntry struct {
	tuple pkt.FiveTuple
	addr  uint64 // arena address of the entry
	xport uint16
}

// NATKernel is Netbench's NAT: per packet, a hash lookup in the
// translation table (allocating a binding on first sight of a flow)
// followed by the routing lookup of the translated destination.
type NATKernel struct {
	tree     *radix.Tree
	sink     memsim.Sink
	arena    *memsim.Arena
	buckets  []uint64 // arena address of each bucket head
	table    map[pkt.FiveTuple]*natEntry
	nextPort uint16

	Translated int64
	Bindings   int64
}

// natBuckets is the modelled hash-table size.
const natBuckets = 4096

// newNAT builds the kernel.
func newNAT(routes []radix.Route, sink memsim.Sink) (*NATKernel, error) {
	tree, err := radix.BuildTable(routes, sink)
	if err != nil {
		return nil, err
	}
	k := &NATKernel{
		tree:     tree,
		sink:     sink,
		arena:    memsim.NewArena(),
		buckets:  make([]uint64, natBuckets),
		table:    make(map[pkt.FiveTuple]*natEntry),
		nextPort: 20000,
	}
	for i := range k.buckets {
		k.buckets[i] = k.arena.Alloc(8, 8)
	}
	return k, nil
}

// Name implements Kernel.
func (*NATKernel) Name() string { return "NAT" }

func (k *NATKernel) touch(addr uint64) {
	if k.sink != nil {
		k.sink.Access(addr)
	}
}

// Process implements Kernel.
func (k *NATKernel) Process(p *pkt.Packet) {
	tup := p.Tuple()
	bucket := tup.Canonical().Hash() % natBuckets
	// Read the bucket head.
	k.touch(k.buckets[bucket])
	e, ok := k.table[tup]
	if !ok {
		// Install a new binding: allocate and write the entry.
		e = &natEntry{
			tuple: tup,
			addr:  k.arena.Alloc(32, 8),
			xport: k.nextPort,
		}
		k.nextPort++
		if k.nextPort < 20000 {
			k.nextPort = 20000
		}
		k.table[tup] = e
		k.touch(e.addr)     // write tuple
		k.touch(e.addr + 8) // write translation
		k.Bindings++
	}
	// Read the binding (tuple compare + translation fields).
	k.touch(e.addr)
	k.touch(e.addr + 8)
	k.Translated++
	// Route the translated packet.
	k.tree.Lookup(uint32(p.DstIP))
}

// RTRKernel is CommBench's RTR: radix-tree routing with the BSD-style
// heavier node layout — every visited node also reads its stored
// prefix/mask words, and the terminal entry performs a full key comparison.
type RTRKernel struct {
	tree *radix.Tree
	sink memsim.Sink
	keys uint64 // arena region standing in for the packet key buffer

	Routed  int64
	Default int64
}

// newRTR builds the kernel.
func newRTR(routes []radix.Route, sink memsim.Sink) (*RTRKernel, error) {
	tree, err := radix.BuildTable(routes, sink)
	if err != nil {
		return nil, err
	}
	arena := memsim.NewArena()
	return &RTRKernel{tree: tree, sink: sink, keys: arena.Alloc(64, 8)}, nil
}

// Name implements Kernel.
func (*RTRKernel) Name() string { return "RTR" }

// Process implements Kernel.
func (k *RTRKernel) Process(p *pkt.Packet) {
	if k.sink != nil {
		// Key extraction into the search buffer.
		k.sink.Access(k.keys)
	}
	_, ok, depth := k.tree.LookupDepth(uint32(p.DstIP))
	if k.sink != nil {
		// BSD radix reads the per-node mask words on the way down and
		// compares the full key at the leaf.
		for i := 0; i < depth; i++ {
			k.sink.Access(k.keys + 8)
		}
		k.sink.Access(k.keys + 16)
	}
	if ok {
		k.Routed++
	} else {
		k.Default++
	}
}

// Result is the outcome of running a kernel over a packet stream: how many
// packets saw each (accesses, misses) pair between their checkpoints.
type Result struct {
	Kernel  string
	Packets map[memsim.PacketRecord]int64
}

// Sample tallies one per-packet measure over the run's packets.
func (r *Result) Sample(measure func(memsim.PacketRecord) float64) stats.Sample {
	m := make(map[float64]int64)
	for rec, n := range r.Packets {
		m[measure(rec)] += n
	}
	return stats.Tally(m)
}

// Run drives a kernel over a packet stream with the paper's checkpoint
// methodology: BeginPacket / process / EndPacket for every packet. It returns
// src's first error other than io.EOF.
func Run(k Kernel, src core.PacketSource, rec *memsim.Recorder) (*Result, error) {
	err := trace.Each(src, func(batch []pkt.Packet) {
		for i := range batch {
			rec.BeginPacket()
			k.Process(&batch[i])
			rec.EndPacket()
		}
	})
	if err != nil {
		return nil, err
	}
	return &Result{Kernel: k.Name(), Packets: rec.Packets()}, nil
}

// KernelKind selects one of the three benchmark programs.
type KernelKind int

// The three benchmark programs of Section 6.
const (
	KindRoute KernelKind = iota
	KindNAT
	KindRTR
)

// String names the kind.
func (k KernelKind) String() string {
	switch k {
	case KindRoute:
		return "Route"
	case KindNAT:
		return "NAT"
	case KindRTR:
		return "RTR"
	default:
		return fmt.Sprintf("KernelKind(%d)", int(k))
	}
}

// NewKernel builds a kernel of the given kind.
func NewKernel(kind KernelKind, routes []radix.Route, sink memsim.Sink) (Kernel, error) {
	switch kind {
	case KindRoute:
		return NewRoute(routes, sink)
	case KindNAT:
		return newNAT(routes, sink)
	case KindRTR:
		return newRTR(routes, sink)
	default:
		return nil, fmt.Errorf("netbench: unknown kernel kind %d", int(kind))
	}
}

// CoveringTable builds the forwarding table a router serving the traced
// link would carry: a /24 for every popular destination prefix of the stream
// plus `background` synthetic routes. A destination /24 qualifies when at
// least minSources distinct source addresses send to it — true for servers
// (every flow brings a new client) but not for heavy clients (one server
// each), so the covered set is stable across compression/decompression,
// which rerolls client addresses. Popular destinations then resolve through
// deep, specific prefixes while arbitrary addresses terminate early — the
// depth difference behind the paper's Figure 2. It drains src, and returns
// src's first error other than io.EOF.
func CoveringTable(src core.PacketSource, minSources int, background int, seed uint64) ([]radix.Route, error) {
	// Each (destination /24, source) pair once, as prefix<<32 | source,
	// sorted and deduplicated whenever the slice fills; a fill that frees
	// less than half of it doubles it.
	var pairs []uint64
	err := trace.Each(src, func(batch []pkt.Packet) {
		for i := range batch {
			p := &batch[i]
			if len(pairs) == cap(pairs) && len(pairs) > 0 {
				pairs = compact(pairs)
				if len(pairs) > cap(pairs)/2 {
					pairs = slices.Grow(pairs, cap(pairs))
				}
			}
			pairs = append(pairs, uint64(uint32(p.DstIP)&0xFFFFFF00)<<32|uint64(uint32(p.SrcIP)))
		}
	})
	if err != nil {
		return nil, err
	}
	pairs = compact(pairs)

	rng := stats.NewRNG(seed)
	routes := radix.GenerateTable(rng, background)
	seen := map[uint64]bool{}
	for _, r := range routes {
		seen[uint64(r.Prefix)<<6|uint64(r.Plen)] = true
	}
	// The covered /24s go in address order, the pairs' order: each one's next
	// hop is its position.
	for i, j := 0, 0; i < len(pairs); i = j {
		prefix := uint32(pairs[i] >> 32)
		for j = i; j < len(pairs) && uint32(pairs[j]>>32) == prefix; j++ {
		}
		key := uint64(prefix)<<6 | 24
		if j-i < minSources || seen[key] {
			continue
		}
		seen[key] = true
		routes = append(routes, radix.Route{
			Prefix:  prefix,
			Plen:    24,
			NextHop: uint32(len(routes)%256 + 1),
		})
	}
	return routes, nil
}

// compact sorts pairs and drops repeats.
func compact(pairs []uint64) []uint64 {
	slices.Sort(pairs)
	return slices.Compact(pairs)
}
