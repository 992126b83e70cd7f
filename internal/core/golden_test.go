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

// updateGolden rewrites the .fz files of testdata/golden from the current
// encoders. The files pin the on-disk format across commits:
// regenerate them only for a deliberate, versioned format change
// (ARCHITECTURE.md, Formats).
var updateGolden = flag.Bool("update", false, "rewrite the .fz files of testdata/golden from the current encoders")

// current names the golden files of the one layout the decoders read, the one
// Encode writes: the container without a footer and with one.
var current = struct{ plain, indexed string }{"v9.fz", "v9-indexed.fz"}

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

// decodeGolden decodes the named golden file.
func decodeGolden(t *testing.T, name string, file []byte) *Archive {
	t.Helper()
	d, err := Decode(bytes.NewReader(file))
	if err != nil {
		t.Fatalf("Decode(%s): %v", name, err)
	}
	return d
}

// readPaths holds the indexed golden file's ExtractFlows, through a Reader,
// and its parallel decode to want.
func readPaths(t *testing.T, name string, file []byte, want *trace.Trace) *Reader {
	t.Helper()
	r, err := OpenReader(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatalf("OpenReader(%s): %v", name, err)
	}
	for path, read := range map[string]func() (*trace.Trace, error){
		"ExtractFlows":       func() (*trace.Trace, error) { return r.ExtractFlows(FlowFilter{}) },
		"DecompressParallel": func() (*trace.Trace, error) { return DecompressParallel(decodeGolden(t, name, file), 3) },
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
// must reproduce the golden files — with and without a footer, and the bulk
// shape, whose long templates are rANS runs and whose tags take the
// new-template symbols — and each must yield the golden archive through every
// read path and re-encode to itself.
func TestGoldenArchiveBytes(t *testing.T) {
	a := goldenArchive(t)
	plain, indexed := IndexConfig{GroupSize: goldenGroupSize}, IndexConfig{Enabled: true, GroupSize: goldenGroupSize}
	names := [2]string{current.plain, current.indexed}
	files := [2][]byte{
		checkGolden(t, names[0], encodeGolden(t, a, plain)),
		checkGolden(t, names[1], encodeGolden(t, a, indexed)),
	}
	bulk := goldenBulkArchive(t)
	v9bulk := checkGolden(t, "v9-bulk-indexed.fz", encodeGolden(t, bulk, bulk.Index))
	// The web archive's 23 first references save less than their counts add to
	// its 13 group entries; the bulk archive's six, in one group, more. The web
	// archive's long templates pay for their RTTs; the bulk archive's, whose
	// gaps cycle through five values whatever the packet, do not.
	v9, v9i := files[0], files[1]
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
	for i, cfg := range [2]IndexConfig{plain, indexed} {
		d := decodeGolden(t, names[i], files[i])
		b := *a
		b.Index = cfg
		sameArchive(t, "Decode("+names[i]+")", d, wireForm(&b))
		if got := encodeGolden(t, d, cfg); !bytes.Equal(got, files[i]) {
			t.Errorf("%s does not re-encode to itself", names[i])
		}
	}
	if _, err := OpenReader(bytes.NewReader(files[0]), int64(len(files[0]))); !errors.Is(err, ErrNoIndex) {
		t.Errorf("OpenReader(%s) = %v, want ErrNoIndex", names[0], err)
	}
	r := readPaths(t, names[1], files[1], packets)
	if is := r.IndexStats(); is.GroupSize != goldenGroupSize || is.Flows != a.Flows() ||
		is.Groups != (a.Flows()+goldenGroupSize-1)/goldenGroupSize ||
		is.ShortTemplates != len(a.ShortTemplates) || is.LongTemplates != len(a.LongTemplates) ||
		is.Addresses != len(a.Addresses) || is.ArchiveBytes != int64(len(files[1])) ||
		is.BodyBytes != int64(len(files[0])) {
		t.Errorf("OpenReader(%s) index stats %+v do not describe the golden archive", names[1], is)
	}
}

// TestPaperEraRefused: the decoders read version 9 alone, so the paper-era
// layout is refused wherever it is met, the error naming the last commit that
// reads it. A container of version 1 or 2 is not an archive to Decode,
// Inspect and OpenReader. A version 9 container whose footer claims
// format 1, the footer of version 2, has a corrupt index to Inspect and
// OpenReader, and a body Decode still reads.
func TestPaperEraRefused(t *testing.T) {
	const why = "commit 6a554a3 the last to read"
	paths := [...]struct {
		name string
		read func(b []byte) error
	}{
		{"Decode", func(b []byte) error { _, err := Decode(bytes.NewReader(b)); return err }},
		{"Inspect", func(b []byte) error { _, _, err := Inspect(b); return err }},
		{"OpenReader", func(b []byte) error { _, err := OpenReader(bytes.NewReader(b), int64(len(b))); return err }},
	}
	plain, indexed := goldenFile(t, current.plain), goldenFile(t, current.indexed)
	for _, tc := range []struct {
		name  string
		input []byte
		want  [len(paths)]error // nil: the path reads the input
	}{
		{"container version 1", relabeled(plain, 1), [...]error{ErrBadArchive, ErrBadArchive, ErrBadArchive}},
		{"container version 2", relabeled(indexed, 2), [...]error{ErrBadArchive, ErrBadArchive, ErrBadArchive}},
		{"footer format 1", refooted(indexed, 1), [...]error{nil, ErrBadIndex, ErrBadIndex}},
	} {
		for i, p := range paths {
			err := p.read(tc.input)
			switch want := tc.want[i]; {
			case want == nil && err != nil:
				t.Errorf("%s(%s): %v", p.name, tc.name, err)
			case want != nil && (!errors.Is(err, want) || !strings.Contains(err.Error(), why)):
				t.Errorf("%s(%s): %v, want %v naming %q", p.name, tc.name, err, want, why)
			}
		}
	}
}

// TestVersion7Refused: version 8 deleted the version 7 decoder
// (ARCHITECTURE.md, Formats), so a version 7 container, plain or indexed, is
// refused as not an archive, naming the last commit that reads it, and no
// Reader opens one.
func TestVersion7Refused(t *testing.T) {
	versionRefused(t, 7, "commit cccd716 the last to read version 7")
}

// TestVersion8Refused: version 9, which codes each template's last two values
// under contexts of their own, deleted the version 8 decoder the same way.
func TestVersion8Refused(t *testing.T) {
	versionRefused(t, 8, "commit d69a042 the last to read version 8")
}

// versionRefused holds the golden containers, relabeled as version v, to a refusal that is ErrBadArchive and says why.
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
}
