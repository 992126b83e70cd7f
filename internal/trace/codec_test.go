package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"flowzip/internal/pcap"
	"flowzip/internal/pkt"
	"flowzip/internal/tsh"
)

// The block capture codec against references kept here: the byte-pair
// Internet checksum over the stored header (what MarshalHeaders did before it
// summed the fields) and one record appended at a time.

func refChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

func refHeaders(p *pkt.Packet) []byte {
	h := make([]byte, pkt.HeaderBytes)
	ip, tcp := h[:20], h[20:]
	ip[0] = 0x45
	binary.BigEndian.PutUint16(ip[2:4], uint16(p.TotalLen()))
	binary.BigEndian.PutUint16(ip[4:6], p.IPID)
	binary.BigEndian.PutUint16(ip[6:8], 0x4000)
	ip[8], ip[9] = p.TTL, p.Proto
	binary.BigEndian.PutUint32(ip[12:16], uint32(p.SrcIP))
	binary.BigEndian.PutUint32(ip[16:20], uint32(p.DstIP))
	binary.BigEndian.PutUint16(ip[10:12], refChecksum(ip))

	binary.BigEndian.PutUint16(tcp[0:2], p.SrcPort)
	binary.BigEndian.PutUint16(tcp[2:4], p.DstPort)
	binary.BigEndian.PutUint32(tcp[4:8], p.Seq)
	binary.BigEndian.PutUint32(tcp[8:12], p.Ack)
	tcp[12], tcp[13] = 5<<4, byte(p.Flags)
	binary.BigEndian.PutUint16(tcp[14:16], p.Window)
	pseudo := make([]byte, 12, 32)
	copy(pseudo[0:8], ip[12:20])
	pseudo[9] = p.Proto
	binary.BigEndian.PutUint16(pseudo[10:12], 20+p.PayloadLen)
	binary.BigEndian.PutUint16(tcp[16:18], refChecksum(append(pseudo, tcp...)))
	return h
}

func refPcap(packets []pkt.Packet) []byte {
	out := make([]byte, pcap.GlobalHeaderLen, pcap.Size(len(packets)))
	binary.LittleEndian.PutUint32(out[0:4], pcap.MagicMicroseconds)
	binary.LittleEndian.PutUint16(out[4:6], 2)
	binary.LittleEndian.PutUint16(out[6:8], 4)
	binary.LittleEndian.PutUint32(out[16:20], pcap.DefaultSnapLen)
	binary.LittleEndian.PutUint32(out[20:24], pcap.LinkTypeRaw)
	for i := range packets {
		p := &packets[i]
		out = binary.LittleEndian.AppendUint32(out, uint32(p.Timestamp/time.Second))
		out = binary.LittleEndian.AppendUint32(out, uint32(p.Timestamp%time.Second/time.Microsecond))
		out = binary.LittleEndian.AppendUint32(out, pkt.HeaderBytes)
		out = binary.LittleEndian.AppendUint32(out, uint32(p.TotalLen()))
		out = append(out, refHeaders(p)...)
	}
	return out
}

func refTSH(packets []pkt.Packet) []byte {
	out := make([]byte, 0, tsh.Size(len(packets)))
	for i := range packets {
		p := &packets[i]
		usec := uint32(p.Timestamp % time.Second / time.Microsecond)
		out = binary.BigEndian.AppendUint32(out, uint32(p.Timestamp/time.Second))
		out = append(out, 0, byte(usec>>16), byte(usec>>8), byte(usec))
		out = append(out, refHeaders(p)[:36]...)
	}
	return out
}

// randomPackets draws every field over its whole range, the lengths that
// wrap a 16-bit sum or total length included.
func randomPackets(n int, seed int64) []pkt.Packet {
	rng := rand.New(rand.NewSource(seed))
	out := make([]pkt.Packet, n)
	for i := range out {
		out[i] = pkt.Packet{
			Timestamp: time.Duration(rng.Uint32())*time.Second + time.Duration(rng.Intn(1e6))*time.Microsecond,
			SrcIP:     pkt.IPv4(rng.Uint32()), DstIP: pkt.IPv4(rng.Uint32()),
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
			Proto: uint8(rng.Uint32()), Flags: pkt.TCPFlags(rng.Uint32()),
			Seq: rng.Uint32(), Ack: rng.Uint32(), Window: uint16(rng.Uint32()),
			TTL: uint8(rng.Uint32()), IPID: uint16(rng.Uint32()), PayloadLen: uint16(rng.Uint32()),
		}
		if i%16 == 0 {
			out[i].SrcIP, out[i].Seq, out[i].PayloadLen = 0xffffffff, 0xffffffff, 0xffff
		}
	}
	return out
}

// chunkWriter takes what it is given at most max bytes at a time, and checks
// the writers' side of the bargain: one Write per block, none larger.
type chunkWriter struct {
	t     *testing.T
	max   int
	calls int
	buf   bytes.Buffer
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	if w.calls++; len(p) > pkt.FileBuffer {
		w.t.Fatalf("Write of %d bytes, above the %d-byte block", len(p), pkt.FileBuffer)
	}
	for rest := p; len(rest) > 0; {
		n := min(w.max, len(rest))
		w.buf.Write(rest[:n])
		rest = rest[n:]
	}
	return len(p), nil
}

type recordWriter interface {
	WritePacket(*pkt.Packet) error
	Flush() error
}

var codecFormats = []struct {
	name      string
	format    Format
	ref       func([]pkt.Packet) []byte
	newWriter func(io.Writer) recordWriter
	// Packet counts around the records that fit one 64 KiB block, with and
	// without the pcap global header.
	seams []int
}{
	{"pcap", FormatPCAP, refPcap, func(w io.Writer) recordWriter { return pcap.NewWriter(w) },
		[]int{1168, 1169, 1170, 1171, 1172}},
	{"tsh", FormatTSH, refTSH, func(w io.Writer) recordWriter { return tsh.NewWriter(w) },
		[]int{1488, 1489, 1490, 1491}},
}

func codecCounts(seams []int) []int {
	counts := append([]int{0, 1}, seams...)
	if !testing.Short() {
		counts = append(counts, 100000)
	}
	return counts
}

// TestWritersMatchReference pins the block writers to the reference bytes:
// WriteAll and WritePacket+Flush, at every count around a block seam.
func TestWritersMatchReference(t *testing.T) {
	for _, f := range codecFormats {
		for _, n := range codecCounts(f.seams) {
			packets := randomPackets(n, int64(n))
			want := f.ref(packets)
			for _, max := range []int{1, 7, 65536} {
				all := &chunkWriter{t: t, max: max}
				if err := (&Trace{Packets: packets}).Write(all, f.format); err != nil {
					t.Fatal(err)
				}
				one := &chunkWriter{t: t, max: max}
				w := f.newWriter(one)
				for i := range packets {
					if err := w.WritePacket(&packets[i]); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				for path, got := range map[string]*chunkWriter{"WriteAll": all, "WritePacket+Flush": one} {
					if !bytes.Equal(got.buf.Bytes(), want) {
						t.Fatalf("%s %s of %d packets differs from the reference marshal", f.name, path, n)
					}
					if blocks := len(want)/pkt.FileBuffer + 1; got.calls > blocks+1 {
						t.Fatalf("%s %s of %d packets: %d Write calls for %d blocks", f.name, path, n, got.calls, blocks)
					}
				}
			}
		}
	}
}

// TestSourceBatchesMatchReadAll reads the same captures back through the
// block decoder at several batch sizes and in one piece, from a file (the
// size hint of LoadFile) and from a stream without one.
func TestSourceBatchesMatchReadAll(t *testing.T) {
	dir := t.TempDir()
	for _, f := range codecFormats {
		for _, n := range codecCounts(f.seams) {
			capture := f.ref(randomPackets(n, int64(n)))
			whole, err := read(bytes.NewReader(capture), f.format, "x", 0)
			if err != nil || whole.Len() != n {
				t.Fatalf("%s: Read of %d packets: %v, %v", f.name, n, whole, err)
			}
			path := filepath.Join(dir, "c."+f.name)
			if err := os.WriteFile(path, capture, 0o644); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !equalPackets(loaded.Packets, whole.Packets) {
				t.Fatalf("%s: LoadFile of %d packets differs from Read", f.name, n)
			}
			if n > 0 && cap(loaded.Packets) != n+1 {
				t.Errorf("%s: LoadFile of %d packets made a slice of %d: the size hint is not exact", f.name, n, cap(loaded.Packets))
			}
			for _, batch := range []int{1, 7, 4096} {
				s, err := OpenStream(path, batch)
				if err != nil {
					t.Fatal(err)
				}
				var got []pkt.Packet
				for {
					b, err := s.Next()
					if err == io.EOF {
						break
					}
					if err != nil || len(b) > batch {
						t.Fatalf("%s: batch of %d at size %d: %v", f.name, len(b), batch, err)
					}
					got = append(got, b...)
				}
				s.Close()
				if !equalPackets(got, whole.Packets) || s.Count() != int64(n) {
					t.Fatalf("%s: %d packets at batch %d differ from ReadAll (Count %d)", f.name, n, batch, s.Count())
				}
			}
		}
	}
}

func equalPackets(a, b []pkt.Packet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSourceZeroAllocsPerBatch: once open, a source decodes batch after
// batch into the buffers it has.
func TestSourceZeroAllocsPerBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, f := range codecFormats {
		capture := bytes.NewReader(f.ref(randomPackets(50000, 1)))
		d, _ := f.format.decoder(0)
		src := pkt.NewBatchReader(capture, d, 256)
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if b, err := src.Next(); err != nil || len(b) != 256 {
				t.Fatalf("%s: batch of %d, %v", f.name, len(b), err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per Next, want 0", f.name, allocs)
		}
	}
}

// TestWriteAllAllocsConstant: the writers allocate their block, not per
// packet.
func TestWriteAllAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, f := range codecFormats {
		allocs := func(n int) float64 {
			tr := &Trace{Packets: randomPackets(n, 1)}
			return testing.AllocsPerRun(5, func() {
				if err := tr.Write(io.Discard, f.format); err != nil {
					t.Fatal(err)
				}
			})
		}
		if few, many := allocs(10), allocs(20000); many != few || few > 4 {
			t.Errorf("%s: WriteAll allocates %v times for 10 packets and %v for 20000, want the same few", f.name, few, many)
		}
	}
}
