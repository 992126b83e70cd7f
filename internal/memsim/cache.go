package memsim

import "fmt"

// Cache is a set-associative cache with true-LRU replacement, modelling the
// data cache of the paper's measurement host. Only tags are simulated.
type Cache struct {
	blockBits uint
	setMask   uint64
	ways      int
	// sets[s] holds up to ways tags in LRU order, most recent first.
	sets [][]uint64
}

// CacheConfig sizes the model.
type CacheConfig struct {
	// TotalBytes is the capacity (must be a power of two multiple of
	// BlockBytes*Ways).
	TotalBytes int
	// BlockBytes is the line size (power of two).
	BlockBytes int
	// Ways is the associativity (>= 1; use Sets*... fully associative not
	// supported beyond TotalBytes/BlockBytes ways).
	Ways int
}

// DefaultCacheConfig models the L1 data cache of the Alpha 21264 — the
// processor family ATOM instrumentation ran on — 64 KB, 2-way, 64 B lines:
// the regime where the paper's miss-rate buckets separate the four traces.
func DefaultCacheConfig() CacheConfig {
	return CacheConfig{TotalBytes: 64 * 1024, BlockBytes: 64, Ways: 2}
}

// NewCache validates the geometry and builds the model.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if cfg.BlockBytes <= 0 || cfg.BlockBytes&(cfg.BlockBytes-1) != 0 {
		return nil, fmt.Errorf("memsim: block size %d not a power of two", cfg.BlockBytes)
	}
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("memsim: ways %d", cfg.Ways)
	}
	lines := cfg.TotalBytes / cfg.BlockBytes
	if lines <= 0 || cfg.TotalBytes%cfg.BlockBytes != 0 {
		return nil, fmt.Errorf("memsim: capacity %d not a multiple of block size %d",
			cfg.TotalBytes, cfg.BlockBytes)
	}
	setCount := lines / cfg.Ways
	if setCount <= 0 || lines%cfg.Ways != 0 {
		return nil, fmt.Errorf("memsim: %d lines not divisible into %d ways", lines, cfg.Ways)
	}
	if setCount&(setCount-1) != 0 {
		return nil, fmt.Errorf("memsim: set count %d not a power of two", setCount)
	}
	blockBits := uint(0)
	for 1<<blockBits < cfg.BlockBytes {
		blockBits++
	}
	c := &Cache{
		blockBits: blockBits,
		setMask:   uint64(setCount - 1),
		ways:      cfg.Ways,
		sets:      make([][]uint64, setCount),
	}
	for i := range c.sets {
		c.sets[i] = make([]uint64, 0, cfg.Ways)
	}
	return c, nil
}

// MustCache is NewCache for known-good configurations.
func MustCache(cfg CacheConfig) *Cache {
	c, err := NewCache(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Access touches addr and reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	block := addr >> c.blockBits
	set := c.sets[block&c.setMask]
	for i, tag := range set {
		if tag == block {
			// Move to front (LRU touch).
			copy(set[1:i+1], set[:i])
			set[0] = block
			return true
		}
	}
	if len(set) < c.ways {
		set = append(set, 0)
		c.sets[block&c.setMask] = set
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = block
	return false
}

// StackDist computes LRU stack-distance statistics of a block-address
// stream: the reuse distance profile that fully determines LRU miss rates
// at every cache size. Used by the locality-analysis tooling.
type StackDist struct {
	blockBits uint
	stack     []uint64 // most recent first
	// Counts[d] = number of references with stack distance d (cold
	// references land in Cold).
	Counts map[int]int64
	Cold   int64
}

// newStackDist profiles at the given block size (power of two).
func newStackDist(blockBytes int) *StackDist {
	bits := uint(0)
	for 1<<bits < blockBytes {
		bits++
	}
	return &StackDist{blockBits: bits, Counts: make(map[int]int64)}
}

// Access records one reference.
func (s *StackDist) Access(addr uint64) {
	block := addr >> s.blockBits
	for i, b := range s.stack {
		if b == block {
			s.Counts[i]++
			copy(s.stack[1:i+1], s.stack[:i])
			s.stack[0] = block
			return
		}
	}
	s.Cold++
	s.stack = append(s.stack, 0)
	copy(s.stack[1:], s.stack[:len(s.stack)-1])
	s.stack[0] = block
}

// Total returns the number of recorded references.
func (s *StackDist) Total() int64 {
	t := s.Cold
	for _, c := range s.Counts {
		t += c
	}
	return t
}

// hitRateAt returns the hit rate a fully-associative LRU cache of the given
// capacity (in blocks) would achieve on the recorded stream.
func (s *StackDist) hitRateAt(blocks int) float64 {
	total := s.Total()
	if total == 0 {
		return 0
	}
	var hits int64
	for d, c := range s.Counts {
		if d < blocks {
			hits += c
		}
	}
	return float64(hits) / float64(total)
}
