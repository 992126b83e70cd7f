package core

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowzip/internal/trace"
)

// updateGolden rewrites the version 6 files of testdata/golden from the
// current encoders. The files pin the on-disk formats across commits:
// regenerate them only for a deliberate, versioned format change. The version
// 1 to 5 files and the version 6 files earlier encoders wrote — with a format
// 2 footer (*-footer2.fz), and with templates in creation order, the tags
// without the new-template symbols and a format 3 footer (*-creation-order.fz,
// datasets-v6-creation-order/) — were left by the last encoder that wrote them
// and are never rewritten.
var updateGolden = flag.Bool("update", false, "rewrite the version 6 files of testdata/golden from the current encoders")

// goldenGroupSize gives the 200-flow golden archive several flow groups.
const goldenGroupSize = 16

func goldenArchive(t *testing.T) *Archive {
	t.Helper()
	a, err := Compress(webTrace(20050320, 200), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.LongTemplates) == 0 || len(a.ShortTemplates) == 0 {
		t.Fatalf("golden trace has %d short and %d long templates, want both", len(a.ShortTemplates), len(a.LongTemplates))
	}
	return a
}

func encodeGolden(t *testing.T, a *Archive, idx IndexConfig) []byte {
	t.Helper()
	b := *a
	b.Index = idx
	var buf bytes.Buffer
	sizes, err := b.Encode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sizes.Total() != int64(buf.Len()) {
		t.Fatalf("section sizes sum to %d, encoded %d bytes", sizes.Total(), buf.Len())
	}
	return buf.Bytes()
}

// goldenFile returns the bytes of the named golden file.
func goldenFile(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkGolden compares got with the named golden file (or rewrites the file
// under -update) and returns the file's bytes.
func checkGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	if *updateGolden {
		path := filepath.Join("testdata", "golden", name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := goldenFile(t, name)
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoder wrote %d bytes that differ from the %d golden bytes", name, len(got), len(want))
	}
	return want
}

func tracesEqual(a, b *trace.Trace) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Packets {
		if a.Packets[i] != b.Packets[i] {
			return false
		}
	}
	return true
}

// goldenBulkArchive is the bulk shape, long transfers only, whose long
// templates a version 6 container writes as rANS runs.
func goldenBulkArchive(t *testing.T) *Archive {
	t.Helper()
	a, err := Compress(bulkTrace(6, 700), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a.Index = IndexConfig{Enabled: true, GroupSize: goldenGroupSize}
	return a
}

// decodeGolden decodes the named golden file, and the templates of the
// archive it holds numbered by first use, as Compress numbers them today: a
// file from before that numbering decodes to the archive Compress writes now
// but for the order of its templates.
func decodeGolden(t *testing.T, name string, file []byte) *Archive {
	t.Helper()
	d, err := Decode(bytes.NewReader(file))
	if err != nil {
		t.Fatalf("Decode(%s): %v", name, err)
	}
	d.numberTemplatesByFirstUse()
	return d
}

// TestGoldenArchiveBytes pins the .fz container byte for byte. Version 6, with
// and without a footer, and the bulk shape, whose long templates are rANS
// runs: the encoder must reproduce the checked-in files, and the decoders
// must accept those files and re-encode them to the same bytes. Versions 1 to
// 5 and the version 6 files earlier encoders wrote (*-footer2.fz,
// *-creation-order.fz) are decode-only: the files the last encoder that wrote
// them left behind must keep yielding the golden archive through every read
// path, and a version 6 one re-encodes, its templates numbered by first use, to
// the file Encode writes today.
func TestGoldenArchiveBytes(t *testing.T) {
	a := goldenArchive(t)
	plain, indexed := IndexConfig{GroupSize: goldenGroupSize}, IndexConfig{Enabled: true, GroupSize: goldenGroupSize}
	v6 := checkGolden(t, "v6.fz", encodeGolden(t, a, plain))
	v6i := checkGolden(t, "v6-indexed.fz", encodeGolden(t, a, indexed))
	bulk := goldenBulkArchive(t)
	v6bulk := checkGolden(t, "v6-bulk-indexed.fz", encodeGolden(t, bulk, bulk.Index))
	v1, v2 := goldenFile(t, "v1.fz"), goldenFile(t, "v2.fz")
	v3, v3i := goldenFile(t, "v3.fz"), goldenFile(t, "v3-indexed.fz")
	v4, v4i := goldenFile(t, "v4.fz"), goldenFile(t, "v4-indexed.fz")
	v5, v5i := goldenFile(t, "v5.fz"), goldenFile(t, "v5-indexed.fz")
	old, oldi := goldenFile(t, "v6-creation-order.fz"), goldenFile(t, "v6-indexed-creation-order.fz")
	// The web archive's 23 first references save less than their counts add to
	// its 13 group entries; the bulk archive's six, in one group, more.
	if v6[4] != containerVersion || v6[5] != 0 || v6i[5] != flagIndexed || v6bulk[5] != flagNewTemplates|flagIndexed {
		t.Fatalf("v6.fz starts %x, v6-indexed.fz %x, v6-bulk-indexed.fz %x: want the new-template symbols in the last alone", v6[:6], v6i[:6], v6bulk[:6])
	}
	if !bytes.Equal(v6[6:], v6i[6:len(v6)]) {
		t.Error("the footer changes the body in front of it")
	}
	if len(v6) >= len(v1) || len(v6i) >= len(v2) || len(v6i)-len(v6) >= len(v3i)-len(v3) || len(v6) > len(old) || len(v6i) >= len(oldi) {
		t.Errorf("version 6 takes %d and %d bytes, versions 1 and 2 took %d and %d, version 3 %d and %d, version 6 in creation order %d and %d", len(v6), len(v6i), len(v1), len(v2), len(v3), len(v3i), len(old), len(oldi))
	}

	// readPaths opens the named indexed file and holds ExtractFlows and the
	// Reader's two full decodes to want.
	readPaths := func(name string, file []byte, want *trace.Trace) *Reader {
		t.Helper()
		r, err := OpenReader(bytes.NewReader(file), int64(len(file)))
		if err != nil {
			t.Fatalf("OpenReader(%s): %v", name, err)
		}
		for path, read := range map[string]func() (*trace.Trace, error){
			"ExtractFlows":       func() (*trace.Trace, error) { return r.ExtractFlows(FlowFilter{}) },
			"Reader.Decompress":  r.Decompress,
			"DecompressParallel": func() (*trace.Trace, error) { return r.DecompressParallel(3) },
		} {
			got, err := read()
			if err != nil {
				t.Fatalf("%s(%s): %v", path, name, err)
			}
			if !tracesEqual(got, want) {
				t.Errorf("%s over %s differs from Decompress of the golden archive", path, name)
			}
		}
		return r
	}
	// today is the file Encode writes in place of the named version 6 one.
	today := func(name string) string {
		return strings.NewReplacer("-footer2", "", "-creation-order", "").Replace(name)
	}

	bulkPackets, err := Decompress(wireForm(bulk))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"v6-bulk-indexed.fz", "v6-bulk-indexed-footer2.fz", "v6-bulk-indexed-creation-order.fz"} {
		file := goldenFile(t, name)
		if _, info, err := Inspect(file); err != nil {
			t.Fatalf("Inspect(%s): %v", name, err)
		} else if info.Flushes.LongTemplates == 0 {
			t.Fatalf("%s: rANS flushes %+v, want the long templates'", name, info.Flushes)
		}
		d := decodeGolden(t, name, file)
		sameArchive(t, "Decode("+name+")", d, wireForm(bulk))
		if got := encodeGolden(t, d, d.Index); !bytes.Equal(got, v6bulk) {
			t.Errorf("%s does not re-encode to %s", name, today(name))
		}
		readPaths(name, file, bulkPackets)
	}

	want := wireForm(a)
	files := map[string][]byte{"v1.fz": v1, "v2.fz": v2, "v3.fz": v3, "v3-indexed.fz": v3i, "v4.fz": v4, "v4-indexed.fz": v4i, "v5.fz": v5, "v5-indexed.fz": v5i, "v6.fz": v6, "v6-indexed.fz": v6i,
		"v6-indexed-footer2.fz": goldenFile(t, "v6-indexed-footer2.fz"), "v6-creation-order.fz": old, "v6-indexed-creation-order.fz": oldi}
	for name, file := range files {
		d := decodeGolden(t, name, file)
		want.Index = IndexConfig{Enabled: file[4] == 2 || file[4] >= 3 && file[5]&flagIndexed != 0}
		if file[4] >= 3 {
			want.Index.GroupSize = goldenGroupSize
		}
		if file[4] == containerVersion {
			if got := encodeGolden(t, d, d.Index); !bytes.Equal(got, files[today(name)]) {
				t.Errorf("%s does not re-encode to %s", name, today(name))
			}
		}
		sameArchive(t, "Decode("+name+")", d, want)
	}

	packets, err := Decompress(want)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{"v2.fz": "v1.fz", "v3-indexed.fz": "v3.fz", "v4-indexed.fz": "v4.fz", "v5-indexed.fz": "v5.fz", "v6-indexed.fz": "v6.fz",
		"v6-indexed-footer2.fz": "v6-creation-order.fz", "v6-indexed-creation-order.fz": "v6-creation-order.fz"} {
		file := files[name]
		r := readPaths(name, file, packets)
		if is := r.IndexStats(); is.GroupSize != goldenGroupSize || is.Flows != a.Flows() ||
			is.Groups != (a.Flows()+goldenGroupSize-1)/goldenGroupSize ||
			is.ShortTemplates != len(a.ShortTemplates) || is.LongTemplates != len(a.LongTemplates) ||
			is.Addresses != len(a.Addresses) || is.ArchiveBytes != int64(len(file)) ||
			is.BodyBytes != int64(len(files[body])) {
			t.Errorf("OpenReader(%s) index stats %+v do not describe the golden archive", name, is)
		}
	}
	for _, name := range []string{"v1.fz", "v3.fz", "v4.fz", "v5.fz", "v6.fz", "v6-creation-order.fz"} {
		file := files[name]
		if _, err := OpenReader(bytes.NewReader(file), int64(len(file))); !errors.Is(err, ErrNoIndex) {
			t.Errorf("OpenReader(%s) = %v, want ErrNoIndex", name, err)
		}
	}
}

// TestGoldenDatasetBytes does the same for the four-dataset directory:
// datasets-v6/ is what SaveDatasets writes, datasets/ (manifest version 1),
// datasets-v3/, datasets-v4/, datasets-v5/ and datasets-v6-creation-order/
// are decode-only.
func TestGoldenDatasetBytes(t *testing.T) {
	a := goldenArchive(t)
	a.Index.GroupSize = goldenGroupSize
	saved := t.TempDir()
	if err := a.SaveDatasets(saved); err != nil {
		t.Fatal(err)
	}
	for _, name := range datasetFiles {
		got, err := os.ReadFile(filepath.Join(saved, name))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join("datasets-v6", name), got)
	}
	want := wireForm(a)
	for _, dir := range []string{"datasets", "datasets-v3", "datasets-v4", "datasets-v5", "datasets-v6-creation-order", "datasets-v6"} {
		loaded, err := LoadDatasets(filepath.Join("testdata", "golden", dir))
		if err != nil {
			t.Fatalf("LoadDatasets(%s): %v", dir, err)
		}
		loaded.numberTemplatesByFirstUse()
		want.Index.GroupSize = loaded.Index.GroupSize
		sameArchive(t, "LoadDatasets("+dir+")", loaded, want)
		// Whatever layout it was loaded from, it is saved and encoded in
		// today's, at the group size it says it had.
		loaded.Index.GroupSize = goldenGroupSize
		resaved := t.TempDir()
		if err := loaded.SaveDatasets(resaved); err != nil {
			t.Fatal(err)
		}
		for _, name := range datasetFiles {
			got, err := os.ReadFile(filepath.Join(resaved, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, goldenFile(t, filepath.Join("datasets-v6", name))) {
				t.Errorf("%s/%s does not re-save to datasets-v6/%s", dir, name, name)
			}
		}
		if got := encodeGolden(t, loaded, loaded.Index); !bytes.Equal(got, goldenFile(t, "v6.fz")) {
			t.Errorf("the golden %s do not encode to v6.fz", dir)
		}
	}
}
