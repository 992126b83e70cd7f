package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/wire"
)

// This file is the one owner of the .fz body layout. Each section has one
// append function and one decode function; Encode and SaveDatasets write
// through the former, Decode, LoadDatasets and Reader read through the
// latter, so the container, the four-dataset directory and the indexed read
// path cannot drift apart.
//
//	header:    magic "FZT1", version byte (1, or 2 when a footer index follows)
//	           uvarint w1, w2, w3, shortMax, limitPct*100
//	           uvarint sourcePackets, sourceTSHBytes
//	short:     uvarint #templates, then per template: uvarint n, n f-bytes
//	long:      uvarint #templates, then per template: uvarint n (>= 1),
//	           n f-bytes, n-1 uvarint µs gaps
//	addresses: uvarint #addresses, then 4 bytes each (big endian)
//	time-seq:  uvarint #records, then per record (sorted by FirstTS):
//	           uvarint µs delta from the previous record's timestamp
//	           uvarint tag: template<<1 | long
//	           uvarint rtt µs (short flows; 0 for long)
//	           uvarint address index
//
// Decoders read through a wire.Cursor, so every count and length is checked
// against the bytes that remain before anything is sized from it, and errors
// wrap the sentinel of whoever made the cursor (ErrBadArchive for Decode and
// LoadDatasets, ErrBadIndex for Reader). Decoded template vectors alias the
// cursor's buffer.

var magic = [4]byte{'F', 'Z', 'T', '1'}

// maxCount is the sanity bound on any count parsed from an archive or
// footer index — far above any real trace, far below what would let a
// corrupt stream demand gigabytes.
const maxCount = 1 << 28

func appendHeader(dst []byte, a *Archive, version byte) []byte {
	dst = append(dst, magic[:]...)
	dst = append(dst, version)
	for _, v := range [...]uint64{
		uint64(a.Opts.Weights.Flag), uint64(a.Opts.Weights.Dep), uint64(a.Opts.Weights.Size),
		uint64(a.Opts.ShortMax), uint64(a.Opts.LimitPct * 100),
		uint64(a.SourcePackets), uint64(a.SourceTSHBytes),
	} {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

// headerFields names the header's uvarints and the largest value each
// destination field holds.
var headerFields = [7]struct {
	what string
	max  uint64
}{
	{"flag weight", math.MaxInt32}, {"dependence weight", math.MaxInt32}, {"size weight", math.MaxInt32},
	{"short-flow maximum", math.MaxInt32}, {"distance limit", math.MaxUint64},
	{"source packet count", math.MaxInt64}, {"source byte count", math.MaxInt64},
}

// decodeHeader fills a.Opts and the source counters and returns the
// container version. A tampered header can carry parameters no encoder
// produces — zero weights would divide by zero inside Weights.Decompose
// during decompression — so the options gate runs here, not just on Compress.
func decodeHeader(c *wire.Cursor, a *Archive) (version byte, err error) {
	m, err := c.Bytes("magic and version", len(magic)+1)
	if err != nil {
		return 0, err
	}
	if [4]byte(m) != magic {
		return 0, ErrBadArchive
	}
	if version = m[4]; version != 1 && version != 2 {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrBadArchive, version)
	}
	var hdr [len(headerFields)]uint64
	for i, f := range headerFields {
		if hdr[i], err = c.UvarintMax(f.what, f.max); err != nil {
			return 0, err
		}
	}
	a.Opts = DefaultOptions()
	a.Opts.Weights = flow.Weights{Flag: int(hdr[0]), Dep: int(hdr[1]), Size: int(hdr[2])}
	a.Opts.ShortMax = int(hdr[3])
	a.Opts.LimitPct = float64(hdr[4]) / 100
	a.SourcePackets = int64(hdr[5])
	a.SourceTSHBytes = int64(hdr[6])
	if err := a.Opts.Validate(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadArchive, err)
	}
	return version, nil
}

// appendVector appends one length-prefixed characterization vector: a whole
// short template, and the head of a long one.
func appendVector(dst []byte, v flow.Vector) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

func decodeVector(c *wire.Cursor) (flow.Vector, error) {
	n, err := c.Count("template length", maxCount, 1)
	if err != nil {
		return nil, err
	}
	return c.Bytes("template", n)
}

// appendShortTemplates appends the short-flows-template section. With idx
// non-nil it records each template's offset from the start of the section.
func appendShortTemplates(dst []byte, tpls []flow.Vector, idx *archiveIndex) []byte {
	base := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(tpls)))
	for _, t := range tpls {
		if idx != nil {
			idx.shortOffs = append(idx.shortOffs, int64(len(dst)-base))
		}
		dst = appendVector(dst, t)
	}
	return dst
}

func decodeShortTemplates(c *wire.Cursor) ([]flow.Vector, error) {
	n, err := c.Count("short template count", maxCount, 1)
	if err != nil {
		return nil, err
	}
	tpls := make([]flow.Vector, n)
	for i := range tpls {
		if tpls[i], err = decodeVector(c); err != nil {
			return nil, fmt.Errorf("short template %d: %w", i, err)
		}
	}
	return tpls, nil
}

func appendLongTemplate(dst []byte, t *LongTemplate) []byte {
	dst = appendVector(dst, t.F)
	for _, g := range t.Gaps {
		dst = binary.AppendUvarint(dst, uint64(g/time.Microsecond))
	}
	return dst
}

func decodeLongTemplate(c *wire.Cursor) (LongTemplate, error) {
	f, err := decodeVector(c)
	if err != nil {
		return LongTemplate{}, err
	}
	if len(f) == 0 {
		return LongTemplate{}, c.Errorf("empty long template")
	}
	if err := c.Fits("long template gaps", len(f)-1, 1); err != nil {
		return LongTemplate{}, err
	}
	gaps := make([]time.Duration, len(f)-1)
	for i := range gaps {
		if gaps[i], err = c.Duration("long template gap", time.Microsecond); err != nil {
			return LongTemplate{}, err
		}
	}
	return LongTemplate{F: f, Gaps: gaps}, nil
}

// appendLongTemplates appends the long-flows-template section, recording
// offsets like appendShortTemplates.
func appendLongTemplates(dst []byte, tpls []LongTemplate, idx *archiveIndex) []byte {
	base := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(tpls)))
	for i := range tpls {
		if idx != nil {
			idx.longOffs = append(idx.longOffs, int64(len(dst)-base))
		}
		dst = appendLongTemplate(dst, &tpls[i])
	}
	return dst
}

func decodeLongTemplates(c *wire.Cursor) ([]LongTemplate, error) {
	n, err := c.Count("long template count", maxCount, 2)
	if err != nil {
		return nil, err
	}
	tpls := make([]LongTemplate, n)
	for i := range tpls {
		if tpls[i], err = decodeLongTemplate(c); err != nil {
			return nil, fmt.Errorf("long template %d: %w", i, err)
		}
	}
	return tpls, nil
}

func appendAddresses(dst []byte, addrs []pkt.IPv4) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(addrs)))
	for _, ip := range addrs {
		dst = binary.BigEndian.AppendUint32(dst, uint32(ip))
	}
	return dst
}

func decodeAddresses(c *wire.Cursor) ([]pkt.IPv4, error) {
	n, err := c.Count("address count", maxCount, 4)
	if err != nil {
		return nil, err
	}
	b, err := c.Bytes("addresses", 4*n)
	if err != nil {
		return nil, err
	}
	addrs := make([]pkt.IPv4, n)
	for i := range addrs {
		addrs[i] = pkt.IPv4(binary.BigEndian.Uint32(b[4*i:]))
	}
	return addrs, nil
}

// appendTimeSeqRecord appends one time-seq record. *clockUS is the section's
// running clock — the previous record's timestamp in whole µs — and advances
// to this record's; timestamps never step backwards on the wire.
func appendTimeSeqRecord(dst []byte, r *TimeSeqRecord, clockUS *int64) []byte {
	delta := max(int64(r.FirstTS/time.Microsecond)-*clockUS, 0)
	*clockUS += delta
	tag := uint64(r.Template) << 1
	rtt := r.RTT
	if r.Long {
		tag |= 1
		rtt = 0
	}
	dst = binary.AppendUvarint(dst, uint64(delta))
	dst = binary.AppendUvarint(dst, tag)
	dst = binary.AppendUvarint(dst, uint64(rtt/time.Microsecond))
	return binary.AppendUvarint(dst, uint64(r.Addr))
}

// decodeTimeSeqRecord reads one record, advancing *clock (the previous
// record's FirstTS) to this record's.
func decodeTimeSeqRecord(c *wire.Cursor, clock *time.Duration) (TimeSeqRecord, error) {
	var r TimeSeqRecord
	delta, err := c.Duration("time-seq timestamp delta", time.Microsecond)
	if err != nil {
		return r, err
	}
	if delta > math.MaxInt64-*clock {
		return r, c.Errorf("time-seq timestamp %v+%v overflows a duration", *clock, delta)
	}
	*clock += delta
	r.FirstTS = *clock
	tag, err := c.UvarintMax("time-seq template tag", math.MaxUint32<<1|1)
	if err != nil {
		return r, err
	}
	r.Long, r.Template = tag&1 == 1, uint32(tag>>1)
	if r.RTT, err = c.Duration("time-seq rtt", time.Microsecond); err != nil {
		return r, err
	}
	r.Addr, err = c.Uint32("time-seq address index")
	return r, err
}

// sortedTimeSeq returns recs ordered by FirstTS, the order the time-seq
// section is delta encoded in. Every compressor already emits TimeSeq
// sorted, so the copy-and-sort (kept for hand-built archives) is normally
// skipped.
func sortedTimeSeq(recs []TimeSeqRecord) []TimeSeqRecord {
	byFirstTS := func(x, y TimeSeqRecord) int { return cmp.Compare(x.FirstTS, y.FirstTS) }
	if !slices.IsSortedFunc(recs, byFirstTS) {
		recs = slices.Clone(recs)
		slices.SortStableFunc(recs, byFirstTS)
	}
	return recs
}

// appendTimeSeq appends the time-seq section for recs, which must be sorted
// (sortedTimeSeq). With idx non-nil it records the flow groups and address
// postings as the records are written.
func appendTimeSeq(dst []byte, recs []TimeSeqRecord, idx *archiveIndex) []byte {
	base := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	clockUS := int64(0)
	for i := range recs {
		off := int64(len(dst) - base)
		dst = appendTimeSeqRecord(dst, &recs[i], &clockUS)
		if idx != nil {
			idx.addRecord(i, off, uint64(clockUS), recs[i].Addr)
		}
	}
	return dst
}

func decodeTimeSeq(c *wire.Cursor) ([]TimeSeqRecord, error) {
	n, err := c.Count("time-seq count", maxCount, 4)
	if err != nil {
		return nil, err
	}
	recs := make([]TimeSeqRecord, n)
	clock := time.Duration(0)
	for i := range recs {
		if recs[i], err = decodeTimeSeqRecord(c, &clock); err != nil {
			return nil, fmt.Errorf("time-seq %d: %w", i, err)
		}
	}
	return recs, nil
}

// decodeSections decodes the five sections, each from its own cursor — all
// the same cursor for the container, one per file for the dataset directory —
// and checks the archive's referential integrity.
func decodeSections(hdr, short, long, addrs, timeseq *wire.Cursor) (a *Archive, version byte, err error) {
	a = &Archive{}
	if version, err = decodeHeader(hdr, a); err != nil {
		return nil, 0, err
	}
	if a.ShortTemplates, err = decodeShortTemplates(short); err != nil {
		return nil, 0, err
	}
	if a.LongTemplates, err = decodeLongTemplates(long); err != nil {
		return nil, 0, err
	}
	if a.Addresses, err = decodeAddresses(addrs); err != nil {
		return nil, 0, err
	}
	if a.TimeSeq, err = decodeTimeSeq(timeseq); err != nil {
		return nil, 0, err
	}
	if err := a.Validate(); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadArchive, err)
	}
	return a, version, nil
}
