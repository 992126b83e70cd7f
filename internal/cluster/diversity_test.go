package cluster

import (
	"testing"

	"flowzip/internal/flow"
)

func TestDiversityConcentrated(t *testing.T) {
	// 100 near-identical Web flows plus 2 outliers: expect few clusters and a
	// dominant top share — the paper's §2.1 observation.
	var vectors []flow.Vector
	for i := 0; i < 100; i++ {
		vectors = append(vectors, flow.Vector{25, 37, 41, 58, 55, 71})
	}
	vectors = append(vectors, flow.Vector{75, 75, 75, 75, 75, 75})
	vectors = append(vectors, flow.Vector{21, 21, 21, 21, 21, 21})
	rep := Diversity(vectors)
	if rep.Flows != 102 {
		t.Fatalf("flows = %d", rep.Flows)
	}
	if rep.Clusters != 3 {
		t.Fatalf("clusters = %d, want 3", rep.Clusters)
	}
	if rep.TopShare < 0.9 {
		t.Fatalf("top share = %v, want > 0.9", rep.TopShare)
	}
	if rep.Top5Share != 1 {
		t.Fatalf("top5 share = %v", rep.Top5Share)
	}
}

func TestDiversityEmpty(t *testing.T) {
	rep := Diversity(nil)
	if rep.Flows != 0 || rep.Clusters != 0 || rep.TopShare != 0 {
		t.Fatalf("empty diversity = %+v", rep)
	}
}
