// Package memsim provides the measurement substrate for the paper's
// Section 6: an ATOM-like memory-access recorder with per-packet
// checkpoints, a synthetic-address arena for instrumented data structures,
// a set-associative LRU cache simulator and an LRU stack-distance profiler.
//
// The paper instrumented the Radix Tree code with ATOM, placing checkpoints
// at the beginning and end of packet processing and recording the number of
// memory accesses per packet; the cache-miss study feeds the same access
// stream to a cache model. Recorder reproduces exactly that methodology for
// code running inside the simulator.
package memsim

import "fmt"

// Sink receives one event per memory access of an instrumented structure.
type Sink interface {
	Access(addr uint64)
}

// Arena hands out synthetic, non-overlapping addresses for instrumented
// data structures. Address zero is reserved so "no address" is
// distinguishable.
type Arena struct {
	next uint64
}

// NewArena starts allocation at a page-aligned nonzero base.
func NewArena() *Arena { return &Arena{next: 0x1000} }

// Alloc reserves size bytes aligned to align (align must be a power of two;
// 0 means 8).
func (a *Arena) Alloc(size, align int) uint64 {
	if size <= 0 {
		panic("memsim: Alloc with non-positive size")
	}
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("memsim: alignment %d not a power of two", align))
	}
	mask := uint64(align - 1)
	a.next = (a.next + mask) &^ mask
	addr := a.next
	a.next += uint64(size)
	return addr
}

// PacketRecord is the measurement for one packet between checkpoints.
type PacketRecord struct {
	Accesses int
	Misses   int
}

// MissRate returns misses/accesses (0 for an idle packet).
func (p PacketRecord) MissRate() float64 {
	if p.Accesses == 0 {
		return 0
	}
	return float64(p.Misses) / float64(p.Accesses)
}

// Recorder is the ATOM-equivalent instrumentation harness: it counts
// memory accesses per packet and, when a cache model is attached, the
// per-packet miss counts. It keeps no record per packet, only how many
// packets saw each (accesses, misses) pair, so a run of any length takes as
// much memory as it has distinct pairs.
type Recorder struct {
	cache   *Cache
	current PacketRecord
	open    bool
	packets map[PacketRecord]int64
}

// NewRecorder attaches an optional cache model (nil = count accesses only).
func NewRecorder(cache *Cache) *Recorder {
	return &Recorder{cache: cache, packets: make(map[PacketRecord]int64)}
}

// BeginPacket opens a checkpoint. Panics if one is already open — that is
// an instrumentation bug worth failing loudly on.
func (r *Recorder) BeginPacket() {
	if r.open {
		panic("memsim: BeginPacket without EndPacket")
	}
	r.open = true
	r.current = PacketRecord{}
}

// EndPacket closes the checkpoint and counts the packet's record.
func (r *Recorder) EndPacket() {
	if !r.open {
		panic("memsim: EndPacket without BeginPacket")
	}
	r.open = false
	r.packets[r.current]++
}

// Access implements Sink. Accesses outside checkpoints (table build-up, for
// example) reach the cache but no packet's count.
func (r *Recorder) Access(addr uint64) {
	miss := r.cache != nil && !r.cache.Access(addr)
	if r.open {
		r.current.Accesses++
		if miss {
			r.current.Misses++
		}
	}
}

// Packets returns, for each measurement, the number of packets that saw it.
func (r *Recorder) Packets() map[PacketRecord]int64 { return r.packets }

// CountingSink is a trivial Sink for tests and raw counts.
type CountingSink struct {
	N int64
}

// Access implements Sink.
func (c *CountingSink) Access(uint64) { c.N++ }
