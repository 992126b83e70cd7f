package core

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"testing"
	"time"

	"flowzip/internal/flow"
)

// The writer of the paper-era layout, container versions 1 and 2, which
// Encode no longer has: every value a byte-aligned uvarint, f values raw, and
// version 2 is version 1 plus a format 1 footer index. With Encode it makes
// the table of layouts the decoders read (layouts, below), which every
// cross-version test iterates, and it keeps feeding the version 1 and 2
// decoders more than the golden files.

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

// legacySections returns a as the paper-era layout writes it, byte for byte
// what Encode wrote before version 3: the five sections of the version 1
// container in file order or, with a.Index.Enabled, those of the version 2
// container and its footer.
func legacySections(t testing.TB, a *Archive) [][]byte {
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
	sections := [][]byte{
		v1Header(nil, a, version),
		v1ShortTemplates(nil, a.ShortTemplates, idx),
		v1LongTemplates(nil, a.LongTemplates, idx),
		appendAddresses(nil, a.Addresses),
		v1TimeSeq(nil, recs, idx),
	}
	if idx != nil {
		idx.sections = sectionSizes(sections)
		sections = append(sections, appendTrailer(appendPayloadV1(nil, idx)))
	}
	return sections
}

// sectionSizes is the sizes of the five body sections given in file order.
func sectionSizes(sections [][]byte) SectionSizes {
	return SectionSizes{Header: int64(len(sections[0])), ShortTemplates: int64(len(sections[1])),
		LongTemplates: int64(len(sections[2])), Addresses: int64(len(sections[3])), TimeSeq: int64(len(sections[4]))}
}

// appendPayloadV1 appends x as a footer payload of index format 1: every
// value a uvarint where it stands.
func appendPayloadV1(dst []byte, x *archiveIndex) []byte {
	dst = binary.AppendUvarint(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(x.groupSize))
	dst = binary.AppendUvarint(dst, uint64(x.flows))
	for _, v := range [...]int64{
		x.sections.Header, x.sections.ShortTemplates, x.sections.LongTemplates,
		x.sections.Addresses, x.sections.TimeSeq,
	} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	for _, offs := range [...][]int64{x.shortOffs, x.longOffs} {
		dst = binary.AppendUvarint(dst, uint64(len(offs)))
		prev := int64(0)
		for _, o := range offs {
			dst = binary.AppendUvarint(dst, uint64(o-prev))
			prev = o
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(x.groups)))
	prevOff, prevLastUS := int64(0), uint64(0)
	for _, g := range x.groups {
		for _, v := range [...]uint64{uint64(g.off - prevOff), uint64(g.count), g.firstUS - prevLastUS, g.lastUS - g.firstUS} {
			dst = binary.AppendUvarint(dst, v)
		}
		prevOff, prevLastUS = g.off, g.lastUS
	}
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

// layout is a container layout the decoders read, with a writer of it.
type layout struct {
	name string
	// sections returns a's sections in file order, with a.Index.Enabled the
	// footer last.
	sections func(testing.TB, *Archive) [][]byte
	// grouped says the body records the time-seq group size, which Decode
	// then reports in Archive.Index.
	grouped bool
	// golden names the golden archive's files in the layout: the container
	// without a footer, with one, and the dataset directory.
	golden [3]string
}

// encode returns a as the container l writes.
func (l layout) encode(t testing.TB, a *Archive) []byte { return bytes.Join(l.sections(t, a), nil) }

// decoded is wireForm(a) as Decode returns it from l's container.
func (l layout) decoded(a *Archive) *Archive {
	w := wireForm(a)
	if !l.grouped {
		w.Index.GroupSize = 0
	}
	return w
}

// layouts are the two layouts the decoders read (ARCHITECTURE.md, Formats):
// the paper's, versions 1 and 2, and the one Encode writes. A format change
// replaces the second entry's files, not the tests that iterate the table.
var layouts = [...]layout{
	{"version 1 and 2", legacySections, false, [3]string{"v1.fz", "v2.fz", "datasets"}},
	{"version 9", builtSections, true, [3]string{"v9.fz", "v9-indexed.fz", "datasets-v9"}},
}

// TestLegacyWriterMatchesGolden holds the reference writer above to the files
// the real version 1 and 2 encoders left behind: the container without a
// footer, with one, and the dataset directory. The archive they were written
// from is the one v1.fz holds, its templates numbered as they were created.
func TestLegacyWriterMatchesGolden(t *testing.T) {
	legacy := layouts[0]
	a, err := Decode(bytes.NewReader(goldenFile(t, legacy.golden[0])))
	if err != nil {
		t.Fatal(err)
	}
	sections := legacy.sections(t, a)
	if !bytes.Equal(bytes.Join(sections, nil), goldenFile(t, legacy.golden[0])) {
		t.Errorf("the reference writer does not reproduce %s", legacy.golden[0])
	}
	for i, name := range datasetFiles {
		if !bytes.Equal(sections[i], goldenFile(t, filepath.Join(legacy.golden[2], name))) {
			t.Errorf("the reference writer does not reproduce %s/%s", legacy.golden[2], name)
		}
	}
	a.Index = IndexConfig{Enabled: true, GroupSize: goldenGroupSize}
	if !bytes.Equal(legacy.encode(t, a), goldenFile(t, legacy.golden[1])) {
		t.Errorf("the reference writer does not reproduce %s", legacy.golden[1])
	}
}
