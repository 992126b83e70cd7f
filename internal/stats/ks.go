package stats

// KSDistance computes the two-sample Kolmogorov–Smirnov statistic
// sup_x |F_a(x) − F_b(x)| between the empirical distributions of two
// samples. The memory-validation experiments use it to quantify the paper's
// "the Original and the Decompressed trace show similar behavior" claim:
// 0 means identical distributions, 1 maximal divergence.
func KSDistance(a, b Sample) float64 {
	na, nb := a.Len(), b.Len()
	if na == 0 || nb == 0 {
		if na == nb {
			return 0
		}
		return 1
	}
	var (
		i, j   int   // the next entries of a and b
		ca, cb int64 // the observations of a and b up to the current x
	)
	maxD := 0.0
	for i < len(a) && j < len(b) {
		x := min(a[i].X, b[j].X)
		for i < len(a) && a[i].X <= x {
			ca += a[i].N
			i++
		}
		for j < len(b) && b[j].X <= x {
			cb += b[j].N
			j++
		}
		d := float64(ca)/float64(na) - float64(cb)/float64(nb)
		if d < 0 {
			d = -d
		}
		if d > maxD {
			maxD = d
		}
	}
	return maxD
}
