package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"flowzip/internal/flow"
)

// The writers of container versions 1 and 2, which Encode no longer has: the
// reference the version 3 read paths are compared against (the same Archive
// through both layouts must decompress to the same packets), and the way the
// tests keep feeding the version 1 and 2 decoders more than the golden files.
// Every value is a byte-aligned uvarint, f values are raw, and version 2 is
// version 1 plus the footer index.

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

func v1TimeSeqRecord(dst []byte, r *TimeSeqRecord, clockUS *int64) []byte {
	delta, tag, rtt, addr := timeSeqFields(r, clockUS) // a long flow's rtt is written as 0
	for _, v := range [...]uint64{delta, tag, rtt, addr} {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

func v1TimeSeq(dst []byte, recs []TimeSeqRecord, idx *archiveIndex) []byte {
	base := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	clockUS := int64(0)
	for i := range recs {
		off := int64(len(dst) - base)
		dst = v1TimeSeqRecord(dst, &recs[i], &clockUS)
		if idx != nil {
			idx.addRecord(i, off, uint64(clockUS), recs[i].Addr)
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
		idx = newArchiveIndex(a, len(recs))
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
		out = append(out, appendTrailer(idx.appendPayload(nil))...)
	}
	return out
}

// TestLegacyWriterMatchesGolden holds the reference writers above to the
// files the real version 1 and 2 encoders left behind.
func TestLegacyWriterMatchesGolden(t *testing.T) {
	a := goldenArchive(t)
	if !bytes.Equal(encodeLegacy(t, a), goldenFile(t, "v1.fz")) {
		t.Error("the version 1 reference writer does not reproduce v1.fz")
	}
	a.Index = IndexConfig{Enabled: true, GroupSize: goldenGroupSize}
	if !bytes.Equal(encodeLegacy(t, a), goldenFile(t, "v2.fz")) {
		t.Error("the version 2 reference writer does not reproduce v2.fz")
	}
}
