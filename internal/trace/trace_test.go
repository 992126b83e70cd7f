package trace

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"flowzip/internal/pkt"
)

func mkTrace(n int) *Trace {
	t := New("test")
	for i := 0; i < n; i++ {
		t.Append(pkt.Packet{
			Timestamp: time.Duration(n-i) * time.Millisecond, // reverse order
			SrcIP:     pkt.Addr(10, 0, 0, byte(i%250)),
			DstIP:     pkt.Addr(192, 168, 0, byte(i%5)),
			SrcPort:   uint16(1024 + i%100),
			DstPort:   80,
			Proto:     pkt.ProtoTCP,
			Flags:     pkt.FlagACK,
			TTL:       64,
		})
	}
	return t
}

func TestSortAndIsSorted(t *testing.T) {
	tr := mkTrace(100)
	if tr.IsSorted() {
		t.Fatal("reverse trace should not be sorted")
	}
	tr.Sort()
	if !tr.IsSorted() {
		t.Fatal("trace not sorted after Sort")
	}
}

func TestDuration(t *testing.T) {
	tr := mkTrace(10) // timestamps 1ms..10ms
	if d := tr.Duration(); d != 9*time.Millisecond {
		t.Fatalf("duration = %v", d)
	}
	if d := New("empty").Duration(); d != 0 {
		t.Fatalf("empty duration = %v", d)
	}
}

func TestCloneIndependent(t *testing.T) {
	tr := mkTrace(5)
	cl := tr.Clone()
	cl.Packets[0].SrcPort = 9999
	if tr.Packets[0].SrcPort == 9999 {
		t.Fatal("clone shares storage")
	}
}

func TestSlice(t *testing.T) {
	tr := mkTrace(10)
	tr.Sort() // 1ms..10ms
	sub := tr.Slice(3*time.Millisecond, 6*time.Millisecond)
	if sub.Len() != 3 {
		t.Fatalf("slice len = %d, want 3", sub.Len())
	}
	for _, p := range sub.Packets {
		if p.Timestamp < 3*time.Millisecond || p.Timestamp >= 6*time.Millisecond {
			t.Fatalf("slice contains out-of-range ts %v", p.Timestamp)
		}
	}
}

func TestComputeStats(t *testing.T) {
	tr := mkTrace(100)
	s := tr.ComputeStats()
	if s.Packets != 100 {
		t.Fatalf("packets = %d", s.Packets)
	}
	if s.UniqueDst != 5 {
		t.Fatalf("unique dst = %d, want 5", s.UniqueDst)
	}
	if s.TSHBytes != 4400 {
		t.Fatalf("tsh bytes = %d, want 4400", s.TSHBytes)
	}
	if s.HeaderOnly != 4000 {
		t.Fatalf("header bytes = %d", s.HeaderOnly)
	}
	if s.Flows == 0 || s.Flows > 100 {
		t.Fatalf("flows = %d", s.Flows)
	}
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestWriteReadBothFormats(t *testing.T) {
	tr := mkTrace(20)
	tr.Sort()
	for _, f := range []Format{FormatTSH, FormatPCAP} {
		var buf bytes.Buffer
		if err := tr.Write(&buf, f); err != nil {
			t.Fatalf("write format %d: %v", f, err)
		}
		back, err := read(&buf, f, "back", 0)
		if err != nil {
			t.Fatalf("read format %d: %v", f, err)
		}
		if back.Len() != tr.Len() {
			t.Fatalf("format %d: got %d packets, want %d", f, back.Len(), tr.Len())
		}
		for i := range tr.Packets {
			if back.Packets[i] != tr.Packets[i] {
				t.Fatalf("format %d packet %d mismatch", f, i)
			}
		}
	}
}

func TestUnknownFormat(t *testing.T) {
	tr := mkTrace(1)
	var buf bytes.Buffer
	if err := tr.Write(&buf, Format(99)); err == nil {
		t.Fatal("expected error for unknown format")
	}
	if _, err := read(&buf, Format(99), "x", 0); err == nil {
		t.Fatal("expected error for unknown format")
	}
}

func TestFormatForPath(t *testing.T) {
	if formatForPath("a/b/c.pcap") != FormatPCAP {
		t.Fatal("pcap ext")
	}
	if formatForPath("x.tsh") != FormatTSH {
		t.Fatal("tsh ext")
	}
	if formatForPath("noext") != FormatTSH {
		t.Fatal("default must be TSH")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	tr := mkTrace(30)
	tr.Sort()
	for _, name := range []string{"t.tsh", "t.pcap"} {
		path := filepath.Join(dir, name)
		if err := tr.SaveFile(path); err != nil {
			t.Fatalf("save %s: %v", name, err)
		}
		back, err := LoadFile(path)
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		if back.Len() != tr.Len() {
			t.Fatalf("%s: got %d packets", name, back.Len())
		}
		if back.Name != "t" {
			t.Fatalf("loaded name = %q", back.Name)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.tsh")); err == nil {
		t.Fatal("expected error for missing file")
	}
}
