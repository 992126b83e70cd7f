package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/wire"
)

// The writers of container versions 1 to 5 and of footer index formats 1 to
// 3, which Encode no longer has: the reference the version 6 read paths are
// compared against (the same Archive through every layout must decompress to
// the same packets), and the way the tests keep feeding the older decoders
// more than the golden files. In versions 1 and 2 every value is a
// byte-aligned uvarint, f values are raw, and version 2 is version 1 plus the
// footer index. Version 5 is version 6 without rANS runs or new-template
// symbols and with a format 2 footer, so it needs no writer of its own:
// encodeV5 is Encode with both ruled out, the version byte set and the footer
// rewritten. Version 4 is
// version 5 with one table for each template column, which every context
// shares. Version 3 is version 4 with the address index itself in the address
// column and a format 1 footer.

func v1Header(dst []byte, a *Archive, version byte) []byte {
	dst = append(dst, magic[:]...)
	dst = append(dst, version)
	for _, v := range [...]uint64{
		uint64(a.Opts.Weights.Flag), uint64(a.Opts.Weights.Dep), uint64(a.Opts.Weights.Size),
		uint64(a.Opts.ShortMax), uint64(a.Opts.LimitPct * 100), // truncated, as those versions did
		uint64(a.SourcePackets), uint64(a.SourceTSHBytes),
	} {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

func v1Vector(dst []byte, v flow.Vector) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

func v1ShortTemplates(dst []byte, tpls []flow.Vector, idx *archiveIndex) []byte {
	base := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(tpls)))
	for _, t := range tpls {
		if idx != nil {
			idx.shortOffs = append(idx.shortOffs, int64(len(dst)-base))
		}
		dst = v1Vector(dst, t)
	}
	return dst
}

func v1LongTemplate(dst []byte, t *LongTemplate) []byte {
	dst = v1Vector(dst, t.F)
	for _, g := range t.Gaps {
		dst = binary.AppendUvarint(dst, uint64(g/time.Microsecond))
	}
	return dst
}

func v1LongTemplates(dst []byte, tpls []LongTemplate, idx *archiveIndex) []byte {
	base := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(tpls)))
	for i := range tpls {
		if idx != nil {
			idx.longOffs = append(idx.longOffs, int64(len(dst)-base))
		}
		dst = v1LongTemplate(dst, &tpls[i])
	}
	return dst
}

// v1TimeSeqRecord appends record r as versions 1 and 2 wrote it, s being a
// state without new symbols.
func v1TimeSeqRecord(dst []byte, r *TimeSeqRecord, s *timeSeqState) []byte {
	delta, tag, rtt, addr := s.fields(r) // a long flow's rtt is written as 0
	for _, v := range [...]uint64{delta, tag, rtt, addr} {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

func v1TimeSeq(dst []byte, recs []TimeSeqRecord, idx *archiveIndex) []byte {
	base := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	var s timeSeqState
	for i := range recs {
		off := int64(len(dst) - base)
		dst = v1TimeSeqRecord(dst, &recs[i], &s)
		if idx != nil {
			idx.addRecord(i, off, uint64(s.clockUS), recs[i].Addr)
		}
	}
	return dst
}

// encodeLegacy returns a as the version 1 container, or with a.Index.Enabled
// the version 2 container, byte for byte what Encode wrote before version 3.
func encodeLegacy(t testing.TB, a *Archive) []byte {
	t.Helper()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	recs := sortedTimeSeq(a.TimeSeq)
	version := byte(1)
	var idx *archiveIndex
	if a.Index.Enabled {
		version = 2
		idx = newArchiveIndex(a, len(recs), false)
	}
	var sizes SectionSizes
	var out []byte
	section := func(size *int64, b []byte) {
		*size = int64(len(b))
		out = append(out, b...)
	}
	section(&sizes.Header, v1Header(nil, a, version))
	section(&sizes.ShortTemplates, v1ShortTemplates(nil, a.ShortTemplates, idx))
	section(&sizes.LongTemplates, v1LongTemplates(nil, a.LongTemplates, idx))
	section(&sizes.Addresses, appendAddresses(nil, a.Addresses))
	section(&sizes.TimeSeq, v1TimeSeq(nil, recs, idx))
	if idx != nil {
		idx.sections = sizes
		out = append(out, appendTrailer(appendPayloadV1(nil, idx))...)
	}
	return out
}

// appendPayloadV1 appends x as a footer payload of index format 1: the head
// format 2 shares less the new-address counts, then uvarint postings.
func appendPayloadV1(dst []byte, x *archiveIndex) []byte {
	dst = x.appendHead(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(len(x.postings)))
	for _, p := range x.postings {
		dst = binary.AppendUvarint(dst, uint64(len(p)))
		prev := uint32(0)
		for _, g := range p {
			dst = binary.AppendUvarint(dst, uint64(g-prev))
			prev = g
		}
	}
	return dst
}

// footerPayload returns x as a footer payload of the given format: format 1
// above, format 2, 3 or 4 as Encode writes it. Format 3 is format 4's head in
// format 3 — group entries with a record count, without template counts — and
// the same postings. Format 2's postings are format 3's under prediction 0
// without the prediction byte, the run padded with zero bytes to one per
// wire.MaxItemsPerByte postings.
func footerPayload(x *archiveIndex, format uint64) []byte {
	switch format {
	case 1:
		return appendPayloadV1(nil, x)
	case 3:
		post := x.appendPayload(nil)[len(x.appendHead(nil, indexVersion)):]
		return append(x.appendHead(nil, 3), post...)
	case 2:
		enc := x.postingCoders()[predPrevious]
		post := x.appendPostings(nil, predPrevious, &enc)
		_, k1 := binary.Uvarint(post)
		total, k2 := binary.Uvarint(post[k1:])
		counts := k1 + k2
		run := len(post) - counts - 1
		for _, e := range enc {
			run -= len(e.AppendTable(nil))
		}
		pad := (int(total)+wire.MaxItemsPerByte-1)/wire.MaxItemsPerByte - run
		dst := append(x.appendHead(nil, 2), post[:counts]...)
		return append(append(dst, post[counts+1:]...), make([]byte, max(pad, 0))...)
	}
	return x.appendPayload(nil)
}

// v4ShortTemplates is appendShortTemplates with every value under the
// column's one table.
func v4ShortTemplates(dst []byte, tpls []flow.Vector, enc *wire.Encoder, idx *archiveIndex) []byte {
	base := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(tpls)))
	w := wire.NewRunWriter(false)
	for _, t := range tpls {
		if idx != nil {
			idx.shortOffs = append(idx.shortOffs, int64(len(dst)-base))
		}
		w.Start(binary.AppendUvarint(dst, uint64(len(t))))
		for _, v := range t {
			enc.Put(&w, uint64(v))
		}
		dst = w.EndRun(len(t))
	}
	return dst
}

// v4LongTemplates is appendLongTemplates likewise.
func v4LongTemplates(dst []byte, tpls []LongTemplate, f, gap *wire.Encoder, idx *archiveIndex) []byte {
	base := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(tpls)))
	w := wire.NewRunWriter(false)
	for i := range tpls {
		if idx != nil {
			idx.longOffs = append(idx.longOffs, int64(len(dst)-base))
		}
		t := &tpls[i]
		w.Start(binary.AppendUvarint(dst, uint64(len(t.F))))
		for _, v := range t.F {
			f.Put(&w, uint64(v))
		}
		for _, g := range t.Gaps {
			gap.Put(&w, uint64(g/time.Microsecond))
		}
		dst = w.EndRun(len(t.F) + len(t.Gaps))
	}
	return dst
}

// v3TimeSeq is appendTimeSeq with the address index written as it is.
func v3TimeSeq(dst []byte, recs []TimeSeqRecord, groupSize int, enc *[numColumns]*wire.Encoder, idx *archiveIndex) []byte {
	base := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	dst = binary.AppendUvarint(dst, uint64(groupSize))
	var s timeSeqState
	w := wire.NewRunWriter(false)
	for i := 0; i < len(recs); i += groupSize {
		group := recs[i:min(i+groupSize, len(recs))]
		off := int64(len(dst) - base)
		w.Start(nil)
		for j := range group {
			d, tag, rtt, addr := s.fields(&group[j])
			enc[colDelta].Put(&w, d)
			enc[colTag].Put(&w, tag)
			if tag&1 == 0 {
				enc[colRTT].Put(&w, rtt)
			}
			enc[colAddr].Put(&w, addr)
			if idx != nil {
				idx.addRecord(i+j, off, uint64(s.clockUS), group[j].Addr)
			}
		}
		run := w.EndRun(len(group))
		dst = append(binary.AppendUvarint(dst, uint64(len(run))), run...)
	}
	return dst
}

// v34Sections returns a as the version 3 or 4 container writes it: the five
// sections in file order and, with a.Index.Enabled, the footer — format 1
// behind version 3, format 2 behind version 4.
func v34Sections(t testing.TB, a *Archive, version byte) [][]byte {
	t.Helper()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	recs := sortedTimeSeq(a.TimeSeq)
	var h [numColumns]wire.Histogram
	a.forEachValue(recs, version, false, func(col, _ int, v uint64) { h[col].Add(v) })
	var enc [numColumns]*wire.Encoder
	for i := range h {
		enc[i] = h[i].Encoder(false)
	}
	flags := byte(0)
	var idx *archiveIndex
	if a.Index.Enabled {
		flags, idx = flagIndexed, newArchiveIndex(a, len(recs), false)
	}
	hdr := appendHeaderFields(nil, a, version, flags)
	for _, e := range enc {
		hdr = e.AppendTable(hdr)
	}
	sections := [][]byte{
		hdr,
		v4ShortTemplates(nil, a.ShortTemplates, enc[colShortF], idx),
		v4LongTemplates(nil, a.LongTemplates, enc[colLongF], enc[colGap], idx),
		appendAddresses(nil, a.Addresses),
	}
	if version == 3 {
		sections = append(sections, v3TimeSeq(nil, recs, a.Index.groupSize(), &enc, idx))
	} else {
		var scratch []byte
		sections = append(sections, appendTimeSeq(nil, recs, a.Index.groupSize(), &enc, false, idx, &scratch))
	}
	if idx != nil {
		idx.sections = SectionSizes{Header: int64(len(sections[0])), ShortTemplates: int64(len(sections[1])),
			LongTemplates: int64(len(sections[2])), Addresses: int64(len(sections[3])), TimeSeq: int64(len(sections[4]))}
		sections = append(sections, appendTrailer(footerPayload(idx, footerVersion(version))))
	}
	return sections
}

// encodeV3 and encodeV4 return a as the version 3 and 4 containers, byte for
// byte what Encode wrote before versions 4 and 5.
func encodeV3(t testing.TB, a *Archive) []byte { return bytes.Join(v34Sections(t, a, 3), nil) }
func encodeV4(t testing.TB, a *Archive) []byte { return bytes.Join(v34Sections(t, a, 4), nil) }

// v5Sections returns a as the version 5 container writes it: the sections
// Encode writes with rANS ruled out, the header's version byte set to 5 and
// the footer in format 2.
func v5Sections(t testing.TB, a *Archive) [][]byte {
	t.Helper()
	var sections [][]byte
	if _, err := a.encodeSections(a.Index.Enabled, false, func(_ int, b []byte) error {
		sections = append(sections, bytes.Clone(b))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if a.Index.Enabled {
		x, _ := footerIndex(bytes.Join(sections, nil))
		sections[5] = appendTrailer(footerPayload(x, 2))
	}
	sections[0][len(magic)] = 5
	return sections
}

// encodeV5 returns a as the version 5 container, byte for byte what Encode
// wrote before version 6.
func encodeV5(t testing.TB, a *Archive) []byte { return bytes.Join(v5Sections(t, a), nil) }

// TestLegacyWriterMatchesGolden holds the reference writers above to the
// files the real version 1 to 5 encoders left behind, and the footer writers
// of formats 2 and 3 to the files the version 6 encoder wrote with them. The
// archive they were written from is the one the version 6 file in creation
// order holds: the templates numbered as they were created.
func TestLegacyWriterMatchesGolden(t *testing.T) {
	a, err := Decode(bytes.NewReader(goldenFile(t, "v6-creation-order.fz")))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeLegacy(t, a), goldenFile(t, "v1.fz")) {
		t.Error("the version 1 reference writer does not reproduce v1.fz")
	}
	a.Index = IndexConfig{Enabled: true, GroupSize: goldenGroupSize}
	if !bytes.Equal(encodeLegacy(t, a), goldenFile(t, "v2.fz")) {
		t.Error("the version 2 reference writer does not reproduce v2.fz")
	}
	for _, name := range []string{"v6-indexed-creation-order.fz", "v6-bulk-indexed-creation-order.fz"} {
		c := goldenFile(t, name)
		x, bodyLen := footerIndex(c)
		if x.format != 3 || !bytes.Equal(append(slices.Clone(c[:bodyLen]), appendTrailer(footerPayload(x, 3))...), c) {
			t.Errorf("the format 3 footer writer does not reproduce %s", name)
		}
		footer2 := strings.Replace(name, "creation-order", "footer2", 1)
		if !bytes.Equal(append(c[:bodyLen], appendTrailer(footerPayload(x, 2))...), goldenFile(t, footer2)) {
			t.Errorf("the format 2 footer writer does not reproduce %s", footer2)
		}
	}
	for _, version := range []byte{3, 4, 5} {
		write := func(a *Archive) [][]byte {
			if version == 5 {
				return v5Sections(t, a)
			}
			return v34Sections(t, a, version)
		}
		a.Index.Enabled = true
		if name := fmt.Sprintf("v%d-indexed.fz", version); !bytes.Equal(bytes.Join(write(a), nil), goldenFile(t, name)) {
			t.Errorf("the version %d reference writer does not reproduce %s", version, name)
		}
		a.Index.Enabled = false
		sections := write(a)
		if name := fmt.Sprintf("v%d.fz", version); !bytes.Equal(bytes.Join(sections, nil), goldenFile(t, name)) {
			t.Errorf("the version %d reference writer does not reproduce %s", version, name)
		}
		dir := fmt.Sprintf("datasets-v%d", version)
		for i, name := range datasetFiles {
			if want := goldenFile(t, filepath.Join(dir, name)); !bytes.Equal(sections[i], want) {
				t.Errorf("the version %d reference writer does not reproduce %s/%s", version, dir, name)
			}
		}
	}
}
