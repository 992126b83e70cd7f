package cluster

import "flowzip/internal/flow"

// DiversityReport summarizes how concentrated a set of same-length flow
// vectors is — the paper's §2.1 conclusion is that a few clusters capture
// almost all Web flows.
type DiversityReport struct {
	Flows          int
	Clusters       int     // templates created by threshold clustering
	TopShare       float64 // share of flows in the single largest cluster
	Top5Share      float64 // share in the 5 largest clusters
	FlowsPerCenter float64 // Flows / Clusters
}

// Diversity clusters the vectors with the paper's threshold method and
// reports concentration statistics.
func Diversity(vectors []flow.Vector) DiversityReport {
	s := NewStore()
	for _, v := range vectors {
		s.Match(v)
	}
	rep := DiversityReport{Flows: len(vectors), Clusters: s.Len()}
	if s.Len() == 0 {
		return rep
	}
	sizes := make([]int, s.Len())
	for i := range sizes {
		sizes[i] = s.Template(i).Members
	}
	for i := 1; i < len(sizes); i++ {
		for j := i; j > 0 && sizes[j] > sizes[j-1]; j-- {
			sizes[j], sizes[j-1] = sizes[j-1], sizes[j]
		}
	}
	top := 0
	for i, sz := range sizes {
		if i < 5 {
			top += sz
		}
		if i == 0 {
			rep.TopShare = float64(sz) / float64(len(vectors))
		}
	}
	rep.Top5Share = float64(top) / float64(len(vectors))
	rep.FlowsPerCenter = float64(len(vectors)) / float64(s.Len())
	return rep
}
