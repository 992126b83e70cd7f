package trace

import "time"

// RunHeap is the time-sorted list of the paper's decompressor (Section 4)
// as a k-way merge: a min-heap of runs, each a sequence already in
// timestamp order, keyed by the timestamp of the run's next packet. Equal
// timestamps go to the run with the lower tie key, which the caller fixes
// when it pushes the run (the conversation's arrival number, the flow's
// time-seq record, the worker's range), so the merged order is the one a
// stable sort of the runs laid end to end in tie-key order would give.
//
// The heap holds keys, not packets: the caller reads the next packet out of
// Top's run, steps the run, and reports the run's new head with FixTop or
// its end with PopTop. That leaves the loop with the caller, which can stop
// at a batch boundary or admit a run before the next packet is taken. A run
// that starts at time s may be pushed late, any time before a packet later
// than s is taken; pushed in start order, the heap never holds more runs
// than overlap in time.
//
// The zero value is an empty heap.
type RunHeap[R any] struct {
	e []runEntry[R]
}

type runEntry[R any] struct {
	head time.Duration
	tie  int
	run  R
}

func (a *runEntry[R]) before(b *runEntry[R]) bool {
	return a.head < b.head || a.head == b.head && a.tie < b.tie
}

// Len returns the number of runs on the heap.
func (h *RunHeap[R]) Len() int { return len(h.e) }

// Push adds a run whose next packet carries timestamp head.
func (h *RunHeap[R]) Push(head time.Duration, tie int, run R) {
	x := runEntry[R]{head, tie, run}
	h.e = append(h.e, x)
	i := len(h.e) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(&h.e[parent]) {
			break
		}
		h.e[i] = h.e[parent]
		i = parent
	}
	h.e[i] = x
}

// TopHead returns the earliest next-packet timestamp over all runs. The heap
// must not be empty.
func (h *RunHeap[R]) TopHead() time.Duration { return h.e[0].head }

// Top returns the run that holds the globally next packet, for the caller to
// read and step; the pointer is good until the next call that changes the
// heap. The heap must not be empty.
func (h *RunHeap[R]) Top() *R { return &h.e[0].run }

// TopLeads reports whether the top run would still hold the next packet if
// its head were at timestamp head: a caller whose runs are slices can take
// the whole stretch of the top run that leads in one copy, and fix the heap
// once after it.
func (h *RunHeap[R]) TopLeads(head time.Duration) bool {
	x := runEntry[R]{head: head, tie: h.e[0].tie}
	return (len(h.e) < 2 || !h.e[1].before(&x)) && (len(h.e) < 3 || !h.e[2].before(&x))
}

// FixTop restores the order after the top run stepped to a packet with
// timestamp head.
func (h *RunHeap[R]) FixTop(head time.Duration) {
	h.e[0].head = head
	h.siftDown(h.e[0])
}

// PopTop removes the top run, which has no packets left.
func (h *RunHeap[R]) PopTop() {
	n := len(h.e) - 1
	x := h.e[n]
	h.e[n] = runEntry[R]{} // drop the reference the slot holds
	h.e = h.e[:n]
	if n > 0 {
		h.siftDown(x)
	}
}

// siftDown places x, which belongs in the heap in place of the entry at the
// root, moving smaller children up into the hole it leaves.
func (h *RunHeap[R]) siftDown(x runEntry[R]) {
	e := h.e
	i := 0
	for {
		c := 2*i + 1
		if c >= len(e) {
			break
		}
		if r := c + 1; r < len(e) && e[r].before(&e[c]) {
			c = r
		}
		if !e[c].before(&x) {
			break
		}
		e[i] = e[c]
		i = c
	}
	e[i] = x
}
