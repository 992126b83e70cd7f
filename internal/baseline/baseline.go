// Package baseline implements the three comparison compressors of the
// paper's Section 5 — GZIP (DEFLATE over the raw TSH stream), the Van
// Jacobson RFC 1144 header compressor with the paper's high-speed-link
// adaptation, and the Peuhkuri flow-based lossy recoder — behind a common
// Method interface so the figure harness can sweep all of them.
package baseline

import (
	"compress/gzip"
	"fmt"
	"io"

	"flowzip/internal/core"
	"flowzip/internal/trace"
	"flowzip/internal/tsh"
)

// Method is one compression scheme under comparison.
type Method interface {
	// Name is the label used in tables and figures.
	Name() string
	// Encode writes the compressed representation of tr to w and returns
	// the number of bytes written.
	Encode(w io.Writer, tr *trace.Trace) (int64, error)
}

// Size measures a method's output size without retaining it.
func Size(m Method, tr *trace.Trace) (int64, error) {
	return m.Encode(io.Discard, tr)
}

// Ratio encodes tr with m once and returns the encoded size and its ratio to
// the trace's TSH file size.
func Ratio(m Method, tr *trace.Trace) (size int64, ratio float64, err error) {
	orig := tsh.Size(tr.Len())
	if orig == 0 {
		return 0, 0, fmt.Errorf("baseline: empty trace")
	}
	if size, err = Size(m, tr); err != nil {
		return 0, 0, err
	}
	return size, float64(size) / float64(orig), nil
}

// Original is the identity "method": the uncompressed TSH file itself.
type Original struct{}

// Name implements Method.
func (Original) Name() string { return "Original TSH" }

// Encode implements Method.
func (Original) Encode(w io.Writer, tr *trace.Trace) (int64, error) {
	cw := &countingWriter{w: w}
	if err := tsh.WriteAll(cw, tr.Packets); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// GZIP compresses the TSH byte stream with DEFLATE, the paper's general
// purpose baseline ("the compressed file size obtained using the GZIP
// application is 50% of the original").
type GZIP struct {
	// Level is the DEFLATE level; 0 means gzip.DefaultCompression.
	Level int
}

// Name implements Method.
func (GZIP) Name() string { return "GZIP" }

// Encode implements Method.
func (g GZIP) Encode(w io.Writer, tr *trace.Trace) (int64, error) {
	cw := &countingWriter{w: w}
	level := g.Level
	if level == 0 {
		level = gzip.DefaultCompression
	}
	zw, err := gzip.NewWriterLevel(cw, level)
	if err != nil {
		return 0, fmt.Errorf("baseline: gzip: %w", err)
	}
	if err := tsh.WriteAll(zw, tr.Packets); err != nil {
		return cw.n, err
	}
	if err := zw.Close(); err != nil {
		return cw.n, fmt.Errorf("baseline: gzip close: %w", err)
	}
	return cw.n, nil
}

// Proposed adapts the core flow-clustering compressor to the Method
// interface.
type Proposed struct {
	// Opts are the codec options; zero value means core.DefaultOptions.
	Opts *core.Options
}

// Name implements Method.
func (Proposed) Name() string { return "Proposed" }

// Encode implements Method.
func (p Proposed) Encode(w io.Writer, tr *trace.Trace) (int64, error) {
	opts := core.DefaultOptions()
	if p.Opts != nil {
		opts = *p.Opts
	}
	a, err := core.Compress(tr, opts)
	if err != nil {
		return 0, err
	}
	sizes, err := a.Encode(w)
	if err != nil {
		return 0, err
	}
	return sizes.Total(), nil
}

// All returns the five methods of Figure 1 in presentation order.
func All() []Method {
	return []Method{Original{}, GZIP{}, NewVJ(), NewPeuhkuri(), Proposed{}}
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
