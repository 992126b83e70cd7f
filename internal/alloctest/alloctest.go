// Package alloctest measures what a function allocates, for the tests that
// hold code to an allocation bound: it is the one place they read the
// runtime's allocation counter. That counter counts the whole process, so
// another goroutine allocating meanwhile — the fuzzing engine's own, say —
// adds to a reading.
package alloctest

import "runtime"

// Bytes returns the heap bytes allocated while fn runs: one reading, for a
// budget on what a fresh process allocates (collect twice first, which
// empties every sync.Pool).
func Bytes(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// Least returns the fewest bytes one of three runs of fn allocates, for a
// bound that must hold on every input whatever else runs. fn must do the same
// work each time; a pool it draws from is warm after the first run.
func Least(fn func()) uint64 { return min(Bytes(fn), Bytes(fn), Bytes(fn)) }
