package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"flowzip/internal/trace"
)

// updateGolden rewrites testdata/golden from the current encoders. The files
// pin the on-disk formats across commits: regenerate them only for a
// deliberate, versioned format change.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current encoders")

// goldenGroupSize gives the 200-flow golden archive several flow groups.
const goldenGroupSize = 16

var goldenDatasetFiles = []string{ManifestFile, ShortTemplateFile, LongTemplateFile, AddressFile, TimeSeqFile}

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

// checkGolden compares got with the named golden file (or rewrites the file
// under -update) and returns the file's bytes.
func checkGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
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

// TestGoldenArchiveBytes pins the .fz v1 and v2 containers and the
// four-dataset directory byte for byte: the encoders must reproduce the
// checked-in files, and the decoders must accept those files and re-encode
// them to the same bytes.
func TestGoldenArchiveBytes(t *testing.T) {
	a := goldenArchive(t)
	v2cfg := IndexConfig{Enabled: true, GroupSize: goldenGroupSize}
	v1 := checkGolden(t, "v1.fz", encodeGolden(t, a, IndexConfig{}))
	v2 := checkGolden(t, "v2.fz", encodeGolden(t, a, v2cfg))

	d1, err := Decode(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("Decode(v1.fz): %v", err)
	}
	if d1.Index.Enabled {
		t.Error("Decode(v1.fz) reports a footer index")
	}
	if got := encodeGolden(t, d1, IndexConfig{}); !bytes.Equal(got, v1) {
		t.Error("v1.fz does not re-encode to itself")
	}
	d2, err := Decode(bytes.NewReader(v2))
	if err != nil {
		t.Fatalf("Decode(v2.fz): %v", err)
	}
	if !d2.Index.Enabled {
		t.Error("Decode(v2.fz) lost the index flag")
	}
	if got := encodeGolden(t, d2, v2cfg); !bytes.Equal(got, v2) {
		t.Error("v2.fz does not re-encode to itself")
	}
	if got := encodeGolden(t, d2, IndexConfig{}); !bytes.Equal(got, v1) {
		t.Error("the v2.fz body does not re-encode to v1.fz")
	}

	want, err := Decompress(d1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(bytes.NewReader(v2), int64(len(v2)))
	if err != nil {
		t.Fatalf("OpenReader(v2.fz): %v", err)
	}
	if is := r.IndexStats(); is.GroupSize != goldenGroupSize || is.Flows != a.Flows() ||
		is.Groups != (a.Flows()+goldenGroupSize-1)/goldenGroupSize ||
		is.ShortTemplates != len(a.ShortTemplates) || is.LongTemplates != len(a.LongTemplates) ||
		is.Addresses != len(a.Addresses) || is.ArchiveBytes != int64(len(v2)) || is.BodyBytes != int64(len(v1)) {
		t.Errorf("OpenReader(v2.fz) index stats %+v do not describe the golden archive", is)
	}
	all, err := r.ExtractFlows(FlowFilter{})
	if err != nil {
		t.Fatalf("ExtractFlows(v2.fz): %v", err)
	}
	if !tracesEqual(all, want) {
		t.Error("ExtractFlows over v2.fz differs from Decompress of v1.fz")
	}
	full, err := r.Decompress()
	if err != nil {
		t.Fatalf("Reader.Decompress(v2.fz): %v", err)
	}
	if !tracesEqual(full, want) {
		t.Error("Reader.Decompress over v2.fz differs from Decompress of v1.fz")
	}
}

func TestGoldenDatasetBytes(t *testing.T) {
	a := goldenArchive(t)
	saved := t.TempDir()
	if err := a.SaveDatasets(saved); err != nil {
		t.Fatal(err)
	}
	for _, name := range goldenDatasetFiles {
		got, err := os.ReadFile(filepath.Join(saved, name))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join("datasets", name), got)
	}

	golden := filepath.Join("testdata", "golden", "datasets")
	loaded, err := LoadDatasets(golden)
	if err != nil {
		t.Fatalf("LoadDatasets(golden): %v", err)
	}
	resaved := t.TempDir()
	if err := loaded.SaveDatasets(resaved); err != nil {
		t.Fatal(err)
	}
	for _, name := range goldenDatasetFiles {
		got, err := os.ReadFile(filepath.Join(resaved, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(golden, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("datasets/%s does not re-save to itself", name)
		}
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "golden", "v1.fz"))
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeGolden(t, loaded, IndexConfig{}); !bytes.Equal(got, v1) {
		t.Error("the golden datasets do not encode to v1.fz")
	}
}
