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

	// Index says whether Encode appends a footer index (see index.go) and how
	// many time-seq records make a flow group. Decode sets Enabled when the
	// container carried a footer, and GroupSize to the group size it was
	// written with when that is not the default; the footer itself is not
	// retained in memory — reopen the bytes with OpenReader for indexed
	// access.
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
	// Index is the footer index size (payload plus trailer); 0 without one.
	Index int64
}

// Total sums all sections.
func (s SectionSizes) Total() int64 {
	return s.Header + s.ShortTemplates + s.LongTemplates + s.Addresses + s.TimeSeq + s.Index
}

// ErrBadArchive reports a stream that is not a flowzip archive.
var ErrBadArchive = errors.New("core: not a flowzip archive")

// encodeBuffers is what one Encode builds in: the section being appended, the
// time-seq group run in front of which its length goes, and the two template
// sections, in each of the forms columnEncoders weighs.
type encodeBuffers struct {
	section, group []byte
	forms          [len(ransColumns)][2][]byte
}

// encodePool recycles them, so repeated encodes (EncodedSize in the figure
// sweeps, Ratio) stop allocating.
var encodePool = sync.Pool{New: func() any { return new(encodeBuffers) }}

// encodeSections builds the container's sections in file order — header,
// short templates, long templates, addresses, time-seq and, when indexed, the
// footer index — handing each to emit, and returns their sizes. It makes two
// passes over the archive: one counting every column to build the tables the
// header carries, one writing. With rans an f column's values may go through
// an rANS state where that is smaller (columnEncoders, which writes the
// template sections both ways in between); without, what is written is
// version 6 as version 5 wrote it. The section layouts live in sections.go,
// the footer's in index.go.
func (a *Archive) encodeSections(indexed, rans bool, emit func(section int, b []byte) error) (SectionSizes, error) {
	var sizes SectionSizes
	if err := a.Validate(); err != nil {
		return sizes, err
	}
	if err := a.Index.Validate(); err != nil {
		return sizes, err
	}
	recs := sortedTimeSeq(a.TimeSeq)
	bufs := encodePool.Get().(*encodeBuffers)
	c := a.columnEncoders(recs, rans, bufs)
	buf := bufs.section[:0]
	defer func() {
		bufs.section = buf
		encodePool.Put(bufs)
	}()
	flags := byte(0)
	var idx *archiveIndex // records offsets as the sections are written
	if indexed {
		flags = flagIndexed
		idx = newArchiveIndex(a, len(recs))
	}
	// Each section is built whole, measured, handed over and dropped, so the
	// buffer peaks at the largest section rather than the archive; the two
	// template sections columnEncoders already built, in buffers of their
	// own.
	fields := [...]*int64{&sizes.Header, &sizes.ShortTemplates, &sizes.LongTemplates, &sizes.Addresses, &sizes.TimeSeq, &sizes.Index}
	out := func(i int, section []byte) error {
		*fields[i] = int64(len(section))
		buf = section[:0]
		return emit(i, section)
	}
	if err := out(0, appendHeader(buf, a, flags, c)); err != nil {
		return sizes, err
	}
	for i, t := range c.templates {
		if idx != nil && i == 0 {
			idx.shortOffs = t.offs
		} else if idx != nil {
			idx.longOffs = t.offs
		}
		if err := out(1+i, append(buf, t.b...)); err != nil {
			return sizes, err
		}
	}
	if err := out(3, appendAddresses(buf, a.Addresses)); err != nil {
		return sizes, err
	}
	if err := out(4, appendTimeSeq(buf, recs, a.Index.groupSize(), &c.enc, idx, &bufs.group)); err != nil {
		return sizes, err
	}
	if idx != nil {
		// The section sizes let the reader locate every section from the
		// footer alone.
		idx.sections = sizes
		if err := out(5, appendTrailer(idx.appendPayload(buf))); err != nil {
			return sizes, err
		}
	}
	return sizes, nil
}

// Encode writes the archive as a version 6 container and returns the
// per-section byte counts. a.Index.Enabled decides only whether the footer
// index follows the body (and the header flag that says so): the body is the
// same bytes either way, Decode parses it without the footer, and OpenReader
// gains random access with it.
func (a *Archive) Encode(w io.Writer) (SectionSizes, error) {
	return a.encodeSections(a.Index.Enabled, true, func(_ int, section []byte) error {
		_, err := w.Write(section)
		return err
	})
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

// Decode parses an archive from r. It accepts every container version; a
// footer index, which sits after the last body section, is not interpreted —
// an indexed archive decodes to the same Archive as its body alone, with
// a.Index recording that the container carried an index. The input is read
// whole; the template vectors of a version 1 or 2 archive alias that buffer.
func Decode(r io.Reader) (*Archive, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: read archive: %w", err)
	}
	return decodeArchive(b)
}

// decodeArchive decodes the container held in b, whose bytes the returned
// archive may keep referencing.
func decodeArchive(b []byte) (*Archive, error) {
	c := wire.NewCursor(b, ErrBadArchive)
	a, _, err := decodeSections(&c, &c, &c, &c, &c)
	return a, err
}
