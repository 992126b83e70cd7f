package core

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"flowzip/internal/trace"
)

// updateGolden rewrites the version 5 files of testdata/golden from the
// current encoders. The files pin the on-disk formats across commits:
// regenerate them only for a deliberate, versioned format change. The version
// 1 to 4 files have no writer any more and are never rewritten.
var updateGolden = flag.Bool("update", false, "rewrite the version 5 files of testdata/golden from the current encoders")

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

// TestGoldenArchiveBytes pins the .fz container byte for byte. Version 5, with
// and without a footer: the encoder must reproduce the checked-in files, and
// the decoders must accept those files and re-encode them to the same bytes.
// Versions 1 to 4 are decode-only: the files the last encoder that wrote them
// left behind must keep yielding the golden archive through every read path.
func TestGoldenArchiveBytes(t *testing.T) {
	a := goldenArchive(t)
	plain, indexed := IndexConfig{GroupSize: goldenGroupSize}, IndexConfig{Enabled: true, GroupSize: goldenGroupSize}
	v5 := checkGolden(t, "v5.fz", encodeGolden(t, a, plain))
	v5i := checkGolden(t, "v5-indexed.fz", encodeGolden(t, a, indexed))
	v1, v2 := goldenFile(t, "v1.fz"), goldenFile(t, "v2.fz")
	v3, v3i := goldenFile(t, "v3.fz"), goldenFile(t, "v3-indexed.fz")
	v4, v4i := goldenFile(t, "v4.fz"), goldenFile(t, "v4-indexed.fz")
	if v5[4] != containerVersion || v5[5] != 0 || v5i[5] != flagIndexed {
		t.Fatalf("v5.fz starts %x, v5-indexed.fz %x", v5[:6], v5i[:6])
	}
	if !bytes.Equal(v5[6:], v5i[6:len(v5)]) {
		t.Error("the footer changes the body in front of it")
	}
	if len(v5) >= len(v1) || len(v5i) >= len(v2) || len(v5i)-len(v5) >= len(v3i)-len(v3) {
		t.Errorf("version 5 takes %d and %d bytes, versions 1 and 2 took %d and %d, version 3 %d and %d", len(v5), len(v5i), len(v1), len(v2), len(v3), len(v3i))
	}

	want := wireForm(a)
	files := map[string][]byte{"v1.fz": v1, "v2.fz": v2, "v3.fz": v3, "v3-indexed.fz": v3i, "v4.fz": v4, "v4-indexed.fz": v4i, "v5.fz": v5, "v5-indexed.fz": v5i}
	for name, file := range files {
		d, err := Decode(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("Decode(%s): %v", name, err)
		}
		want.Index = IndexConfig{Enabled: file[4] == 2 || file[4] >= 3 && file[5] == flagIndexed}
		if file[4] >= 3 {
			want.Index.GroupSize = goldenGroupSize
		}
		if file[4] == containerVersion {
			if got := encodeGolden(t, d, d.Index); !bytes.Equal(got, file) {
				t.Errorf("%s does not re-encode to itself", name)
			}
		}
		sameArchive(t, "Decode("+name+")", d, want)
	}

	packets, err := Decompress(want)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{"v2.fz": "v1.fz", "v3-indexed.fz": "v3.fz", "v4-indexed.fz": "v4.fz", "v5-indexed.fz": "v5.fz"} {
		file := files[name]
		r, err := OpenReader(bytes.NewReader(file), int64(len(file)))
		if err != nil {
			t.Fatalf("OpenReader(%s): %v", name, err)
		}
		if is := r.IndexStats(); is.GroupSize != goldenGroupSize || is.Flows != a.Flows() ||
			is.Groups != (a.Flows()+goldenGroupSize-1)/goldenGroupSize ||
			is.ShortTemplates != len(a.ShortTemplates) || is.LongTemplates != len(a.LongTemplates) ||
			is.Addresses != len(a.Addresses) || is.ArchiveBytes != int64(len(file)) ||
			is.BodyBytes != int64(len(files[body])) {
			t.Errorf("OpenReader(%s) index stats %+v do not describe the golden archive", name, is)
		}
		all, err := r.ExtractFlows(FlowFilter{})
		if err != nil {
			t.Fatalf("ExtractFlows(%s): %v", name, err)
		}
		if !tracesEqual(all, packets) {
			t.Errorf("ExtractFlows over %s differs from Decompress of the golden archive", name)
		}
		full, err := r.Decompress()
		if err != nil {
			t.Fatalf("Reader.Decompress(%s): %v", name, err)
		}
		if !tracesEqual(full, packets) {
			t.Errorf("Reader.Decompress over %s differs from Decompress of the golden archive", name)
		}
	}
	for _, name := range []string{"v1.fz", "v3.fz", "v4.fz", "v5.fz"} {
		file := files[name]
		if _, err := OpenReader(bytes.NewReader(file), int64(len(file))); !errors.Is(err, ErrNoIndex) {
			t.Errorf("OpenReader(%s) = %v, want ErrNoIndex", name, err)
		}
	}
}

// TestGoldenDatasetBytes does the same for the four-dataset directory:
// datasets-v5/ is what SaveDatasets writes, datasets/ (manifest version 1),
// datasets-v3/ and datasets-v4/ are decode-only.
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
		checkGolden(t, filepath.Join("datasets-v5", name), got)
	}
	want := wireForm(a)
	for _, dir := range []string{"datasets", "datasets-v3", "datasets-v4", "datasets-v5"} {
		loaded, err := LoadDatasets(filepath.Join("testdata", "golden", dir))
		if err != nil {
			t.Fatalf("LoadDatasets(%s): %v", dir, err)
		}
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
			if !bytes.Equal(got, goldenFile(t, filepath.Join("datasets-v5", name))) {
				t.Errorf("%s/%s does not re-save to datasets-v5/%s", dir, name, name)
			}
		}
		if got := encodeGolden(t, loaded, loaded.Index); !bytes.Equal(got, goldenFile(t, "v5.fz")) {
			t.Errorf("the golden %s do not encode to v5.fz", dir)
		}
	}
}
