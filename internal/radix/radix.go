// Package radix implements the Radix Tree Routing data structure the
// paper's Section 6 instruments: a binary trie over IPv4 destination
// prefixes ("a binary tree, which starting at the root, stores the prefix
// address and mask so far; as you move down the tree, more bits are
// matched"), with longest-prefix-match lookup.
//
// Every node lives at a synthetic arena address; when a memsim.Sink is
// attached, each field touch during lookup/insert is reported, reproducing
// the paper's ATOM instrumentation of the Route/NAT/RTR kernels.
package radix

import (
	"fmt"

	"flowzip/internal/memsim"
	"flowzip/internal/stats"
)

// nodeSize is the modelled memory footprint of one trie node: two child
// pointers, next hop, entry flag and padding (32 bytes, one or two cache
// lines' worth of fields).
const nodeSize = 32

// Field offsets within a node, used to attribute accesses to distinct
// words of the node.
const (
	offChildren = 0  // child pointer pair
	offEntry    = 8  // entry flag + next hop
	offPrefix   = 16 // stored prefix/mask words
)

type node struct {
	left, right *node
	addr        uint64
	nextHop     uint32
	hasEntry    bool
}

// Tree is a binary trie keyed by IPv4 address bits (most significant
// first).
type Tree struct {
	root  *node
	arena *memsim.Arena
	sink  memsim.Sink

	entries int
}

// New returns an empty tree with its own arena and no instrumentation.
func New() *Tree { return newInstrumented(nil) }

// newInstrumented attaches a memory-access sink (nil disables recording).
func newInstrumented(sink memsim.Sink) *Tree {
	t := &Tree{arena: memsim.NewArena(), sink: sink}
	t.root = t.newNode()
	return t
}

// setSink replaces the instrumentation sink (e.g. to skip the table-build
// phase and measure only lookups).
func (t *Tree) setSink(sink memsim.Sink) { t.sink = sink }

func (t *Tree) newNode() *node {
	return &node{addr: t.arena.Alloc(nodeSize, 8)}
}

func (t *Tree) touch(n *node, off uint64) {
	if t.sink != nil {
		t.sink.Access(n.addr + off)
	}
}

// Len returns the number of installed prefixes.
func (t *Tree) Len() int { return t.entries }

// Insert installs (or replaces) a prefix of plen bits with the given next
// hop. plen must be in [0, 32]; host bits below plen are ignored.
func (t *Tree) Insert(prefix uint32, plen int, nextHop uint32) error {
	if plen < 0 || plen > 32 {
		return fmt.Errorf("radix: prefix length %d out of range", plen)
	}
	n := t.root
	for i := 0; i < plen; i++ {
		t.touch(n, offChildren)
		bit := prefix >> uint(31-i) & 1
		var next *node
		if bit == 0 {
			next = n.left
		} else {
			next = n.right
		}
		if next == nil {
			next = t.newNode()
			if bit == 0 {
				n.left = next
			} else {
				n.right = next
			}
		}
		n = next
	}
	t.touch(n, offEntry)
	if !n.hasEntry {
		t.entries++
	}
	n.hasEntry = true
	n.nextHop = nextHop
	return nil
}

// Lookup returns the next hop of the longest prefix matching addr. The
// second result reports whether any prefix matched. The access pattern is
// the paper's: starting at the root, one child-pointer read and one entry
// check per level until the path ends.
func (t *Tree) Lookup(addr uint32) (uint32, bool) {
	n := t.root
	var best uint32
	found := false
	for i := 0; ; i++ {
		t.touch(n, offEntry)
		if n.hasEntry {
			best = n.nextHop
			found = true
		}
		if i == 32 {
			return best, found
		}
		t.touch(n, offChildren)
		bit := addr >> uint(31-i) & 1
		if bit == 0 {
			n = n.left
		} else {
			n = n.right
		}
		if n == nil {
			return best, found
		}
	}
}

// LookupDepth is Lookup plus the number of nodes visited, for the
// memory-access analyses.
func (t *Tree) LookupDepth(addr uint32) (hop uint32, ok bool, depth int) {
	n := t.root
	for i := 0; ; i++ {
		depth++
		t.touch(n, offEntry)
		if n.hasEntry {
			hop = n.nextHop
			ok = true
		}
		if i == 32 {
			return hop, ok, depth
		}
		t.touch(n, offChildren)
		bit := addr >> uint(31-i) & 1
		if bit == 0 {
			n = n.left
		} else {
			n = n.right
		}
		if n == nil {
			return hop, ok, depth
		}
	}
}

// Walk visits every installed prefix in address order.
func (t *Tree) Walk(visit func(prefix uint32, plen int, nextHop uint32)) {
	var rec func(n *node, prefix uint32, depth int)
	rec = func(n *node, prefix uint32, depth int) {
		if n == nil {
			return
		}
		if n.hasEntry {
			visit(prefix, depth, n.nextHop)
		}
		rec(n.left, prefix, depth+1)
		rec(n.right, prefix|1<<uint(31-depth), depth+1)
	}
	rec(t.root, 0, 0)
}

// WalkPrefix visits, in address order, every installed entry whose prefix
// is contained in (i.e. extends or equals) the query prefix of plen bits.
// It is the subtree enumeration behind 5-tuple-prefix queries over the
// archive index: install /32 server addresses, query any shorter prefix,
// and collect the matching address set. plen must be in [0, 32]; host bits
// below plen are ignored. Walking is uninstrumented, like the build phase.
func (t *Tree) WalkPrefix(prefix uint32, plen int, visit func(prefix uint32, plen int, nextHop uint32)) error {
	if plen < 0 || plen > 32 {
		return fmt.Errorf("radix: prefix length %d out of range", plen)
	}
	// Descend to the node at the query prefix; no descendants exist if the
	// path is absent.
	n := t.root
	base := uint32(0)
	for i := 0; i < plen; i++ {
		bit := prefix >> uint(31-i) & 1
		if bit == 0 {
			n = n.left
		} else {
			n = n.right
			base |= 1 << uint(31-i)
		}
		if n == nil {
			return nil
		}
	}
	var rec func(n *node, prefix uint32, depth int)
	rec = func(n *node, prefix uint32, depth int) {
		if n == nil {
			return
		}
		if n.hasEntry {
			visit(prefix, depth, n.nextHop)
		}
		if depth == 32 {
			return
		}
		rec(n.left, prefix, depth+1)
		rec(n.right, prefix|1<<uint(31-depth), depth+1)
	}
	rec(n, base, plen)
	return nil
}

// Route is one forwarding-table entry.
type Route struct {
	Prefix  uint32
	Plen    int
	NextHop uint32
}

// GenerateTable synthesizes a forwarding table with a realistic prefix
// length mix (dominated by /24 and /16, as BGP tables are) over n entries.
func GenerateTable(rng *stats.RNG, n int) []Route {
	plens := stats.NewDiscrete(
		[]int{8, 12, 16, 18, 20, 22, 24, 26, 28, 32},
		[]float64{0.5, 1.5, 10, 5, 8, 10, 55, 5, 3, 2},
	)
	routes := make([]Route, 0, n)
	seen := map[uint64]bool{}
	for len(routes) < n {
		plen := plens.SampleInt(rng)
		prefix := rng.Uint32() &^ (1<<uint(32-plen) - 1)
		if plen == 32 {
			prefix = rng.Uint32()
		}
		key := uint64(prefix)<<6 | uint64(plen)
		if seen[key] {
			continue
		}
		seen[key] = true
		routes = append(routes, Route{Prefix: prefix, Plen: plen, NextHop: uint32(len(routes)%256 + 1)})
	}
	return routes
}

// BuildTable inserts all routes into a fresh instrumented tree.
func BuildTable(routes []Route, sink memsim.Sink) (*Tree, error) {
	t := newInstrumented(nil) // do not record the build phase
	for _, r := range routes {
		if err := t.Insert(r.Prefix, r.Plen, r.NextHop); err != nil {
			return nil, err
		}
	}
	t.setSink(sink)
	return t, nil
}
