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
	// the packet count implicitly (vector length) and the F values. Compress
	// numbers the templates of each dataset in the order the time-seq first
	// names them (numberTemplatesByFirstUse).
	ShortTemplates []flow.Vector
	// LongTemplates is the long-flows-template dataset: F values plus the
	// n-1 inter-packet gaps.
	LongTemplates []LongTemplate
	// Addresses is the address dataset: unique destination (server) IPs,
	// which Compress numbers in the order the first flow to each completes.
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
//
// Gaps is a packed run: the len(F)-1 gaps in packet order, each the uvarint
// (binary.AppendUvarint) of uint64(gap in whole µs, rounded down), the unit
// the container codes, nothing between them — most gaps take 1 to 3 bytes
// where a time.Duration takes 8. A negative gap, which a table stage fed out of
// order can record and Validate refuses, takes 10.
// Compress fills F and Gaps in one walk of the flow's packet words
// (flow.Flow.AppendVectorGaps) and keeps them in one allocation, F followed
// by the gaps (newLongTemplate), as the decoders do. The run is read in
// order (wire.Uvarints, wire.UvarintAt).
type LongTemplate struct {
	F    flow.Vector
	Gaps []byte
}

// newLongTemplate returns the long template whose n f values and packed gaps
// b holds, in that order, copied into one allocation of b's exact size, so b
// may be the caller's scratch.
func newLongTemplate(b []byte, n int) LongTemplate {
	own := make([]byte, len(b))
	copy(own, b)
	return LongTemplate{F: own[:n:n], Gaps: own[n:]}
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
		n += a.flowLen(&a.TimeSeq[i])
	}
	return n
}

// flowLen returns the packet count of a record's template.
func (a *Archive) flowLen(r *TimeSeqRecord) int {
	if r.Long {
		return len(a.LongTemplates[r.Template].F)
	}
	return len(a.ShortTemplates[r.Template])
}

// Validate checks referential integrity of the datasets, that every short
// template has 1 to Opts.ShortMax packets and that no gap, rtt or timestamp
// is negative, which no container holds.
func (a *Archive) Validate() error { return a.validate(true) }

// validate is Validate, with the scan of every long template's gap run left
// out unless gaps: the decoders, which rebuild each run with len(F)-1 gaps of
// 0 to maxIndexUS, skip a pass over what is most of a long-flow archive's
// memory.
func (a *Archive) validate(gaps bool) error {
	for i, t := range a.ShortTemplates {
		if len(t) == 0 || len(t) > a.Opts.ShortMax {
			return fmt.Errorf("core: short template %d has %d packets, not 1 to %d", i, len(t), a.Opts.ShortMax)
		}
	}
	for i := range a.TimeSeq {
		r := &a.TimeSeq[i]
		if r.FirstTS < 0 || r.RTT < 0 {
			return fmt.Errorf("core: time-seq %d has timestamp %v and rtt %v, not both at least 0", i, r.FirstTS, r.RTT)
		}
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
	if !gaps {
		return nil
	}
	for i := range a.LongTemplates {
		if err := a.LongTemplates[i].validateGaps(); err != nil {
			return fmt.Errorf("core: long template %d %w", i, err)
		}
	}
	return nil
}

// validateGaps checks that t's gap run holds len(F)-1 whole varints and
// nothing after them, none of them past maxIndexUS µs, the most a duration
// holds, which a negative gap is. A byte scan settles a well-formed run: it
// counts the bytes that end a varint and stops at the seventh byte in a row
// that does not, the start of a varint of 2^49 or more; the decode that
// names what is wrong, or finds such a gap within bounds, runs only where the
// scan stops.
func (t *LongTemplate) validateGaps() error {
	ends, in := 0, 0 // the varints ended, the bytes into the next
	for _, b := range t.Gaps {
		if b < 0x80 {
			ends, in = ends+1, 0
		} else if in++; in == 7 {
			break
		}
	}
	if in == 0 && ends == len(t.F)-1 {
		return nil
	}
	j, off := 0, 0
	for ; off < len(t.Gaps); j++ {
		v, n := wire.UvarintAt(t.Gaps, off)
		switch {
		case n == 0:
			return fmt.Errorf("has gap %d cut short after %d bytes", j, len(t.Gaps)-off)
		case n < 0:
			return fmt.Errorf("has gap %d overflowing 64 bits", j)
		case v > maxIndexUS:
			return fmt.Errorf("has gap %d of %dµs", j, int64(v))
		}
		off += n
	}
	if j != len(t.F)-1 {
		return fmt.Errorf("has %d gaps for %d packets", j, len(t.F))
	}
	return nil
}

// numberTemplatesByFirstUse renumbers the short templates, and apart from them
// the long ones, in the order the time-seq, which must be sorted, first names
// them, so that the time-seq's new-template symbol stands for every first
// reference (sections.go); a template no record names follows those that are,
// in the order it had. What each record decodes to stays as it was. It
// allocates one []uint32 per template dataset.
func (a *Archive) numberTemplatesByFirstUse() {
	// perms[long][t] is template t's new index plus one, 0 until it has one.
	perms := [2][]uint32{make([]uint32, len(a.ShortTemplates)), make([]uint32, len(a.LongTemplates))}
	var next [2]uint32
	for i := range a.TimeSeq {
		r := &a.TimeSeq[i]
		k := 0
		if r.Long {
			k = 1
		}
		if p := perms[k]; p[r.Template] == 0 {
			next[k]++
			p[r.Template] = next[k]
		}
		r.Template = perms[k][r.Template] - 1
	}
	for k, p := range perms {
		for t := range p {
			if p[t] == 0 {
				next[k]++
				p[t] = next[k]
			}
			p[t]--
		}
	}
	permute(a.ShortTemplates, perms[0])
	permute(a.LongTemplates, perms[1])
}

// permute moves xs[i] to xs[dst[i]], dst being a permutation, which it uses
// up: every swap puts one element where it goes.
func permute[T any](xs []T, dst []uint32) {
	for i := range xs {
		for j := dst[i]; j != uint32(i); j = dst[i] {
			xs[i], xs[j] = xs[j], xs[i]
			dst[i], dst[j] = dst[j], dst[i]
		}
	}
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
// group run in front of which its length goes, the long templates' RTTs and
// gaps in µs (coders) and the dependent gaps of one of them, reordered to
// find their median.
type encodeBuffers struct {
	section, group []byte
	rtts, deps, us []uint64
}

// encodePool recycles them, so repeated encodes (EncodedSize in the figure
// sweeps, Ratio) stop allocating.
var encodePool = sync.Pool{New: func() any { return new(encodeBuffers) }}

// encodeSections builds the container's sections in file order — header,
// short templates, long templates, addresses, time-seq and, when indexed, the
// footer index — handing each to emit, and returns their sizes. It makes two
// passes over the archive: one counting every column to build the tables the
// header carries and to pick, where the counts say that is smaller, rANS for
// an f column, the new-template symbols for the tag column and RTT-coded long
// template gaps (columnEncoders), then one writing each section once. The
// section layouts live in sections.go, the footer's in index.go.
func (a *Archive) encodeSections(indexed bool, emit func(section []byte) error) (SectionSizes, error) {
	var sizes SectionSizes
	if err := a.Validate(); err != nil {
		return sizes, err
	}
	if err := a.Index.Validate(); err != nil {
		return sizes, err
	}
	recs := sortedTimeSeq(a.TimeSeq)
	bufs := encodePool.Get().(*encodeBuffers)
	c := a.columnEncoders(recs, bufs)
	buf := bufs.section[:0]
	defer func() {
		bufs.section = buf
		encodePool.Put(bufs)
	}()
	flags := byte(0)
	var idx *archiveIndex // records offsets as the sections are written
	if indexed {
		flags = flagIndexed
		idx = newArchiveIndex(a, len(recs), c.newTemplates)
	}
	// Each section is built whole, measured, handed over and dropped, so the
	// buffer peaks at the largest section rather than the archive.
	fields := [...]*int64{&sizes.Header, &sizes.ShortTemplates, &sizes.LongTemplates, &sizes.Addresses, &sizes.TimeSeq, &sizes.Index}
	out := func(i int, section []byte) error {
		*fields[i] = int64(len(section))
		buf = section[:0]
		return emit(section)
	}
	if err := out(0, appendHeader(buf, a, flags, c)); err != nil {
		return sizes, err
	}
	if err := out(1, appendShortTemplates(buf, a.ShortTemplates, a.Index.groupSize(), c, idx, &bufs.group)); err != nil {
		return sizes, err
	}
	if err := out(2, appendLongTemplates(buf, a.LongTemplates, c, idx)); err != nil {
		return sizes, err
	}
	if err := out(3, appendAddresses(buf, a.Addresses)); err != nil {
		return sizes, err
	}
	if err := out(4, appendTimeSeq(buf, recs, a.Index.groupSize(), &c.enc, c.newTemplates, idx, &bufs.group)); err != nil {
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

// Encode writes the archive as a version 9 container and returns the
// per-section byte counts. a.Index.Enabled decides only whether the footer
// index follows the body (and the header flag that says so): the body is the
// same bytes either way, Decode parses it without the footer, and OpenReader
// gains random access with it. Encode writes the templates in the order a
// holds them, which any order round-trips in; the order Compress gives them
// is the one the time-seq codes in the fewest bits.
func (a *Archive) Encode(w io.Writer) (SectionSizes, error) {
	return a.encodeSections(a.Index.Enabled, func(section []byte) error {
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

// Decode parses an archive from r: container version 9, which Encode writes;
// any other version returns ErrBadArchive. A footer index, which sits after
// the last body section, is not interpreted — an indexed archive decodes to
// the same Archive as its body alone, with a.Index recording that the
// container carried an index. The input is read whole; the archive keeps no
// reference to it.
func Decode(r io.Reader) (*Archive, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: read archive: %w", err)
	}
	return decodeArchive(b)
}

// decodeArchive decodes the container held in b.
func decodeArchive(b []byte) (*Archive, error) {
	c := wire.NewCursor(b, ErrBadArchive)
	a, _, err := decodeSections(&c)
	return a, err
}
