package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/wire"
)

// Archive is the in-memory form of a compressed trace: the paper's four
// datasets plus bookkeeping metadata.
type Archive struct {
	// ShortTemplates is the short-flows-template dataset: each entry stores
	// the packet count implicitly (vector length) and the F values.
	ShortTemplates []flow.Vector
	// LongTemplates is the long-flows-template dataset: F values plus the
	// n-1 inter-packet gaps.
	LongTemplates []LongTemplate
	// Addresses is the address dataset: unique destination (server) IPs in
	// first-seen order.
	Addresses []pkt.IPv4
	// TimeSeq is the time-seq dataset, sorted by FirstTS.
	TimeSeq []TimeSeqRecord

	// Opts records the codec parameters the archive was produced with; the
	// decompressor reuses them.
	Opts Options

	// Index selects the v2 container with a footer index (see index.go).
	// The zero value keeps Encode on the v1 container. Decode sets Enabled
	// when it parsed a v2 archive (with GroupSize 0, meaning the default);
	// the footer itself is not retained in memory — reopen the bytes with
	// OpenReader for indexed access.
	Index IndexConfig

	// SourcePackets and SourceTSHBytes describe the original trace, kept for
	// ratio reporting.
	SourcePackets  int64
	SourceTSHBytes int64
}

// LongTemplate is one long-flow entry: per-packet characterization values
// and the measured inter-packet times ("the inter packet time is stored in
// the long-flows-template dataset").
type LongTemplate struct {
	F    flow.Vector
	Gaps []time.Duration // len(F)-1 entries
}

// TimeSeqRecord is one flow's entry in the time-seq dataset.
type TimeSeqRecord struct {
	// FirstTS is the timestamp of the flow's first packet.
	FirstTS time.Duration
	// Long selects the template dataset (false=S, true=L).
	Long bool
	// Template indexes into the selected template dataset.
	Template uint32
	// RTT is the flow round-trip estimate; meaningful for short flows only
	// ("for long flows, the field RTT ... is not filled").
	RTT time.Duration
	// Addr indexes the address dataset (the flow's server address).
	Addr uint32
}

// Flows returns the number of flows in the archive.
func (a *Archive) Flows() int { return len(a.TimeSeq) }

// Packets returns the number of packets the archive decodes to.
func (a *Archive) Packets() int {
	n := 0
	for i := range a.TimeSeq {
		r := &a.TimeSeq[i]
		if r.Long {
			n += len(a.LongTemplates[r.Template].F)
		} else {
			n += len(a.ShortTemplates[r.Template])
		}
	}
	return n
}

// Validate checks referential integrity of the datasets.
func (a *Archive) Validate() error {
	for i := range a.TimeSeq {
		r := &a.TimeSeq[i]
		if r.Long {
			if int(r.Template) >= len(a.LongTemplates) {
				return fmt.Errorf("core: time-seq %d references long template %d of %d",
					i, r.Template, len(a.LongTemplates))
			}
		} else if int(r.Template) >= len(a.ShortTemplates) {
			return fmt.Errorf("core: time-seq %d references short template %d of %d",
				i, r.Template, len(a.ShortTemplates))
		}
		if int(r.Addr) >= len(a.Addresses) {
			return fmt.Errorf("core: time-seq %d references address %d of %d",
				i, r.Addr, len(a.Addresses))
		}
	}
	for i, t := range a.LongTemplates {
		if len(t.Gaps) != len(t.F)-1 {
			return fmt.Errorf("core: long template %d has %d gaps for %d packets",
				i, len(t.Gaps), len(t.F))
		}
	}
	return nil
}

// SectionSizes reports encoded bytes per dataset, for the storage breakdown
// table.
type SectionSizes struct {
	Header         int64
	ShortTemplates int64
	LongTemplates  int64
	Addresses      int64
	TimeSeq        int64
	// Index is the footer index size (payload plus trailer); 0 for the v1
	// container.
	Index int64
}

// Total sums all sections.
func (s SectionSizes) Total() int64 {
	return s.Header + s.ShortTemplates + s.LongTemplates + s.Addresses + s.TimeSeq + s.Index
}

// ErrBadArchive reports a stream that is not a flowzip archive.
var ErrBadArchive = errors.New("core: not a flowzip archive")

// encodePool recycles the buffer Encode builds each section in, so repeated
// encodes (EncodedSize in the figure sweeps, Ratio) stop allocating.
var encodePool = sync.Pool{New: func() any { return new([]byte) }}

// Encode writes the archive and returns the per-section byte counts. When
// a.Index.Enabled is set it writes the v2 container: the same body followed
// by the footer index, so v1 readers of the body layout (Decode) still parse
// it and OpenReader gains random access. The section layouts live in
// sections.go, the footer's in index.go.
func (a *Archive) Encode(w io.Writer) (SectionSizes, error) {
	var sizes SectionSizes
	if err := a.Validate(); err != nil {
		return sizes, err
	}
	if err := a.Index.Validate(); err != nil {
		return sizes, err
	}
	recs := sortedTimeSeq(a.TimeSeq)
	version := byte(1)
	var idx *archiveIndex // records offsets as the sections are written
	if a.Index.Enabled {
		version = 2
		idx = newArchiveIndex(a, len(recs))
	}

	bp := encodePool.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() {
		*bp = buf[:0]
		encodePool.Put(bp)
	}()
	// Each section is built whole, measured, written and dropped, so the
	// buffer peaks at the largest section rather than the archive.
	emit := func(size *int64, section []byte) error {
		*size = int64(len(section))
		_, err := w.Write(section)
		buf = section[:0]
		return err
	}
	if err := emit(&sizes.Header, appendHeader(buf, a, version)); err != nil {
		return sizes, err
	}
	if err := emit(&sizes.ShortTemplates, appendShortTemplates(buf, a.ShortTemplates, idx)); err != nil {
		return sizes, err
	}
	if err := emit(&sizes.LongTemplates, appendLongTemplates(buf, a.LongTemplates, idx)); err != nil {
		return sizes, err
	}
	if err := emit(&sizes.Addresses, appendAddresses(buf, a.Addresses)); err != nil {
		return sizes, err
	}
	if err := emit(&sizes.TimeSeq, appendTimeSeq(buf, recs, idx)); err != nil {
		return sizes, err
	}
	if idx != nil {
		// The section sizes let the reader locate every section from the
		// footer alone.
		idx.sections = sizes
		if err := emit(&sizes.Index, appendTrailer(idx.appendPayload(buf))); err != nil {
			return sizes, err
		}
	}
	return sizes, nil
}

// EncodedSize returns the total encoded byte count without keeping the
// bytes.
func (a *Archive) EncodedSize() (int64, error) {
	sizes, err := a.Encode(io.Discard)
	if err != nil {
		return 0, err
	}
	return sizes.Total(), nil
}

// Decode parses an archive from r. It accepts both container versions: the
// v2 footer index, which sits after the last body section, is not interpreted
// — a v2 archive decodes to the exact same Archive as its v1 body (a.Index
// records that the container carried an index). The input is read whole, and
// the archive's template vectors alias that one buffer.
func Decode(r io.Reader) (*Archive, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: read archive: %w", err)
	}
	return decodeArchive(b)
}

// decodeArchive decodes the container held in b, whose bytes the returned
// archive keeps referencing.
func decodeArchive(b []byte) (*Archive, error) {
	c := wire.NewCursor(b, ErrBadArchive)
	a, version, err := decodeSections(&c, &c, &c, &c, &c)
	if err != nil {
		return nil, err
	}
	a.Index.Enabled = version == 2
	return a, nil
}
