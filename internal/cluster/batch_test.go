package cluster

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"flowzip/internal/flow"
)

// randomBurst builds a workload shaped like finalized short-flow traffic:
// a few base shapes with small perturbations, so some vectors match, some
// create, and exact duplicates exercise the memo.
func randomBurst(rng *rand.Rand, count int) []flow.Vector {
	bases := make([]flow.Vector, 1+rng.IntN(6))
	for i := range bases {
		n := 1 + rng.IntN(24)
		bases[i] = make(flow.Vector, n)
		for j := range bases[i] {
			bases[i][j] = uint8(rng.UintN(200))
		}
	}
	vs := make([]flow.Vector, count)
	for i := range vs {
		base := bases[rng.IntN(len(bases))]
		v := append(flow.Vector(nil), base...)
		for k := rng.IntN(3); k > 0; k-- {
			v[rng.IntN(len(v))] = uint8(rng.UintN(256))
		}
		vs[i] = v
	}
	return vs
}

// TestQuickMatchBatchEqualsSequential pins MatchBatch to its contract: the
// batch resolves exactly as the same sequence of Match calls, template ids,
// created flags, counters and stored vectors all identical — for memoized
// and plain stores, across arbitrary batch boundaries.
func TestQuickMatchBatchEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for _, memo := range []bool{false, true} {
		for round := 0; round < 40; round++ {
			vs := randomBurst(rng, 1+rng.IntN(200))
			seq, bat := NewStore(), NewStore()
			if memo {
				seq.EnableMemo()
				bat.EnableMemo()
			}

			wantT := make([]*Template, len(vs))
			wantC := make([]bool, len(vs))
			for i, v := range vs {
				wantT[i], wantC[i] = seq.Match(v)
			}

			gotT := make([]*Template, len(vs))
			gotC := make([]bool, len(vs))
			for start := 0; start < len(vs); {
				end := start + 1 + rng.IntN(32)
				if end > len(vs) {
					end = len(vs)
				}
				bat.MatchBatch(vs[start:end], gotT[start:end], gotC[start:end])
				start = end
			}

			for i := range vs {
				if gotT[i].ID != wantT[i].ID || gotC[i] != wantC[i] {
					t.Fatalf("memo=%v round %d vec %d: batch (id=%d,created=%v), sequential (id=%d,created=%v)",
						memo, round, i, gotT[i].ID, gotC[i], wantT[i].ID, wantC[i])
				}
			}
			if s, b := seq.Stats(), bat.Stats(); s != b {
				t.Fatalf("memo=%v round %d: stats diverge: %+v vs %+v", memo, round, s, b)
			}
			if seq.Len() != bat.Len() {
				t.Fatalf("memo=%v round %d: %d vs %d templates", memo, round, seq.Len(), bat.Len())
			}
			for i := range seq.Len() {
				st, bt := seq.Template(i), bat.Template(i)
				if !bytes.Equal(st.Vector, bt.Vector) || st.Members != bt.Members {
					t.Fatalf("memo=%v round %d template %d diverges", memo, round, i)
				}
			}
		}
	}
}
