package core

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowzip/internal/trace"
)

// updateGolden rewrites the version 9 files of testdata/golden from the
// current encoders. The files pin the on-disk formats across commits:
// regenerate them only for a deliberate, versioned format change, which
// deletes the files of the version it replaces (ARCHITECTURE.md, Formats).
// The version 1 and 2 files, the paper-era layout, were left by the last
// encoder that wrote them and are never rewritten.
var updateGolden = flag.Bool("update", false, "rewrite the version 9 files of testdata/golden from the current encoders")

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
// templates a version 9 container writes as rANS runs.
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
// version 1 or 2 file decodes to the archive Compress writes now but for the
// order of its templates.
func decodeGolden(t *testing.T, name string, file []byte) *Archive {
	t.Helper()
	d, err := Decode(bytes.NewReader(file))
	if err != nil {
		t.Fatalf("Decode(%s): %v", name, err)
	}
	d.numberTemplatesByFirstUse()
	return d
}

// readPaths opens the indexed golden file and holds ExtractFlows and the
// Reader's two full decodes to want.
func readPaths(t *testing.T, name string, file []byte, want *trace.Trace) *Reader {
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

// TestGoldenArchiveBytes pins the .fz container byte for byte. The encoder
// must reproduce the version 9 files — with and without a footer, and the
// bulk shape, whose long templates are rANS runs and whose tags take the
// new-template symbols. Every layout's files, the version 1 and 2 ones left
// by their last encoder included, must keep yielding the golden archive
// through every read path and re-encode to the files Encode writes today.
func TestGoldenArchiveBytes(t *testing.T) {
	a := goldenArchive(t)
	plain, indexed := IndexConfig{GroupSize: goldenGroupSize}, IndexConfig{Enabled: true, GroupSize: goldenGroupSize}
	current := layouts[len(layouts)-1]
	today := [2][]byte{
		checkGolden(t, current.golden[0], encodeGolden(t, a, plain)),
		checkGolden(t, current.golden[1], encodeGolden(t, a, indexed)),
	}
	bulk := goldenBulkArchive(t)
	v9bulk := checkGolden(t, "v9-bulk-indexed.fz", encodeGolden(t, bulk, bulk.Index))
	// The web archive's 23 first references save less than their counts add to
	// its 13 group entries; the bulk archive's six, in one group, more. The web
	// archive's long templates pay for their RTTs; the bulk archive's, whose
	// gaps cycle through five values whatever the packet, do not.
	v9, v9i := today[0], today[1]
	if v9[4] != containerVersion || v9[5] != flagRTTGaps || v9i[5] != flagRTTGaps|flagIndexed || v9bulk[5] != flagNewTemplates|flagIndexed {
		t.Fatalf("v9.fz starts %x, v9-indexed.fz %x, v9-bulk-indexed.fz %x: want RTT-coded gaps in the first two alone, the new-template symbols in the last alone", v9[:6], v9i[:6], v9bulk[:6])
	}
	if !bytes.Equal(v9[6:], v9i[6:len(v9)]) {
		t.Error("the footer changes the body in front of it")
	}

	if _, info, err := Inspect(v9bulk); err != nil {
		t.Fatalf("Inspect(v9-bulk-indexed.fz): %v", err)
	} else if info.Flushes.LongTemplates == 0 {
		t.Fatalf("v9-bulk-indexed.fz: rANS flushes %+v, want the long templates'", info.Flushes)
	}
	d := decodeGolden(t, "v9-bulk-indexed.fz", v9bulk)
	sameArchive(t, "Decode(v9-bulk-indexed.fz)", d, wireForm(bulk))
	if got := encodeGolden(t, d, d.Index); !bytes.Equal(got, v9bulk) {
		t.Error("v9-bulk-indexed.fz does not re-encode to itself")
	}
	bulkPackets, err := Decompress(wireForm(bulk))
	if err != nil {
		t.Fatal(err)
	}
	readPaths(t, "v9-bulk-indexed.fz", v9bulk, bulkPackets)

	packets, err := Decompress(wireForm(a))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range layouts {
		files := [2][]byte{goldenFile(t, l.golden[0]), goldenFile(t, l.golden[1])}
		for i, cfg := range [2]IndexConfig{plain, indexed} {
			name, file := l.golden[i], files[i]
			if len(file) < len(today[i]) {
				t.Errorf("%s takes %d bytes, %s %d", name, len(file), current.golden[i], len(today[i]))
			}
			d := decodeGolden(t, name, file)
			b := *a
			b.Index = cfg
			sameArchive(t, "Decode("+name+")", d, l.decoded(&b))
			if got := encodeGolden(t, d, cfg); !bytes.Equal(got, today[i]) {
				t.Errorf("%s does not re-encode to %s", name, current.golden[i])
			}
		}
		if _, err := OpenReader(bytes.NewReader(files[0]), int64(len(files[0]))); !errors.Is(err, ErrNoIndex) {
			t.Errorf("OpenReader(%s) = %v, want ErrNoIndex", l.golden[0], err)
		}
		r := readPaths(t, l.golden[1], files[1], packets)
		if is := r.IndexStats(); is.GroupSize != goldenGroupSize || is.Flows != a.Flows() ||
			is.Groups != (a.Flows()+goldenGroupSize-1)/goldenGroupSize ||
			is.ShortTemplates != len(a.ShortTemplates) || is.LongTemplates != len(a.LongTemplates) ||
			is.Addresses != len(a.Addresses) || is.ArchiveBytes != int64(len(files[1])) ||
			is.BodyBytes != int64(len(files[0])) {
			t.Errorf("OpenReader(%s) index stats %+v do not describe the golden archive", l.golden[1], is)
		}
	}
}

// TestGoldenDatasetBytes does the same for the four-dataset directory:
// datasets-v9/ is what SaveDatasets writes, datasets/ (manifest version 1) the
// paper-era directory.
func TestGoldenDatasetBytes(t *testing.T) {
	a := goldenArchive(t)
	a.Index.GroupSize = goldenGroupSize
	saved := t.TempDir()
	if err := a.SaveDatasets(saved); err != nil {
		t.Fatal(err)
	}
	current := layouts[len(layouts)-1]
	for _, name := range datasetFiles {
		got, err := os.ReadFile(filepath.Join(saved, name))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join(current.golden[2], name), got)
	}
	for _, l := range layouts {
		dir := l.golden[2]
		loaded, err := LoadDatasets(filepath.Join("testdata", "golden", dir))
		if err != nil {
			t.Fatalf("LoadDatasets(%s): %v", dir, err)
		}
		loaded.numberTemplatesByFirstUse()
		sameArchive(t, "LoadDatasets("+dir+")", loaded, l.decoded(a))
		// Whatever layout it was loaded from, it is saved and encoded in
		// today's.
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
			if !bytes.Equal(got, goldenFile(t, filepath.Join(current.golden[2], name))) {
				t.Errorf("%s/%s does not re-save to %s/%s", dir, name, current.golden[2], name)
			}
		}
		if got := encodeGolden(t, loaded, loaded.Index); !bytes.Equal(got, goldenFile(t, current.golden[0])) {
			t.Errorf("the golden %s do not encode to %s", dir, current.golden[0])
		}
	}
}

// TestVersion7Refused: version 8 deleted the version 7 decoder
// (ARCHITECTURE.md, Formats), so a version 7 container, plain or indexed, and
// a dataset directory under a version 7 manifest are refused as not an
// archive, naming the last commit that reads them, and no Reader opens one.
func TestVersion7Refused(t *testing.T) {
	versionRefused(t, 7, "commit cccd716 the last to read version 7")
}

// TestVersion8Refused: version 9, which codes each template's last two values
// under contexts of their own, deleted the version 8 decoder the same way.
func TestVersion8Refused(t *testing.T) {
	versionRefused(t, 8, "commit d69a042 the last to read version 8")
}

// versionRefused holds the golden containers and dataset directory, relabeled
// as version v, to a refusal that is ErrBadArchive and says why.
func versionRefused(t *testing.T, v byte, why string) {
	t.Helper()
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrBadArchive) || !strings.Contains(err.Error(), why) {
			t.Errorf("%s: %v, want ErrBadArchive naming %q", what, err, why)
		}
	}
	for _, name := range []string{"v9.fz", "v9-indexed.fz", "v9-bulk-indexed.fz"} {
		old := relabeled(goldenFile(t, name), v)
		_, err := Decode(bytes.NewReader(old))
		refused(fmt.Sprintf("Decode(version %d %s)", v, name), err)
		_, err = OpenReader(bytes.NewReader(old), int64(len(old)))
		refused(fmt.Sprintf("OpenReader(version %d %s)", v, name), err)
	}
	dir := t.TempDir()
	for _, name := range datasetFiles {
		b := goldenFile(t, filepath.Join("datasets-v9", name))
		if name == ManifestFile {
			b = relabeled(b, v)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := LoadDatasets(dir)
	refused(fmt.Sprintf("LoadDatasets(version %d manifest)", v), err)
}
