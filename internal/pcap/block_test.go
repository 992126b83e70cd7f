package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"flowzip/internal/pkt"
)

// naiveRead is the reference the block decoder is held to: one record at a
// time with two io.ReadFull calls, and its own parse of the headers — the
// reader this package had before the block codec, plus the two bounds the
// codec added (IHL within the captured bytes, wire length within 16 bits of
// payload). It returns the packets before the first error and the error.
func naiveRead(data []byte) ([]pkt.Packet, error) {
	r := bytes.NewReader(data)
	var gh [GlobalHeaderLen]byte
	if _, err := io.ReadFull(r, gh[:]); err != nil {
		return nil, fmt.Errorf("truncated global header: %w", err)
	}
	if binary.LittleEndian.Uint32(gh[0:4]) != MagicMicroseconds {
		return nil, ErrBadMagic
	}
	if lt := binary.LittleEndian.Uint32(gh[20:24]); lt != LinkTypeRaw {
		return nil, fmt.Errorf("link type %d", lt)
	}
	var out []pkt.Packet
	for {
		var rh [RecordHeaderLen]byte
		if n, err := io.ReadFull(r, rh[:]); err == io.EOF && n == 0 {
			return out, io.EOF
		} else if err != nil {
			return out, fmt.Errorf("truncated record header: %w", err)
		}
		incl := binary.LittleEndian.Uint32(rh[8:12])
		orig := binary.LittleEndian.Uint32(rh[12:16])
		if incl > 65536 {
			return out, fmt.Errorf("record too large: %d", incl)
		}
		body := make([]byte, incl)
		if _, err := io.ReadFull(r, body); err != nil {
			return out, fmt.Errorf("truncated record body: %w", err)
		}
		if orig > 65575 {
			return out, fmt.Errorf("record %d: wire length %d", len(out), orig)
		}
		if len(body) < 20 || body[0]>>4 != 4 || body[0]&0x0f < 5 {
			return out, fmt.Errorf("record %d: bad IP header", len(out))
		}
		ihl := int(body[0]&0x0f) * 4
		if len(body) < ihl+16 {
			return out, fmt.Errorf("record %d: short TCP header", len(out))
		}
		tcp := body[ihl:]
		p := pkt.Packet{
			Timestamp: time.Duration(binary.LittleEndian.Uint32(rh[0:4]))*time.Second +
				time.Duration(binary.LittleEndian.Uint32(rh[4:8]))*time.Microsecond,
			IPID: binary.BigEndian.Uint16(body[4:6]), TTL: body[8], Proto: body[9],
			SrcIP:   pkt.IPv4(binary.BigEndian.Uint32(body[12:16])),
			DstIP:   pkt.IPv4(binary.BigEndian.Uint32(body[16:20])),
			SrcPort: binary.BigEndian.Uint16(tcp[0:2]), DstPort: binary.BigEndian.Uint16(tcp[2:4]),
			Seq: binary.BigEndian.Uint32(tcp[4:8]), Ack: binary.BigEndian.Uint32(tcp[8:12]),
			Flags: pkt.TCPFlags(tcp[13]), Window: binary.BigEndian.Uint16(tcp[14:16]),
		}
		// The wire length gives the payload; under 40 bytes of it, the IP
		// total length net of both header lengths does.
		if orig >= pkt.HeaderBytes {
			p.PayloadLen = uint16(orig - pkt.HeaderBytes)
		} else if n := int(binary.BigEndian.Uint16(body[2:4])) - ihl - max(20, int(tcp[12]>>4)*4); n > 0 {
			p.PayloadLen = uint16(n)
		}
		out = append(out, p)
	}
}

// errClass sorts decode errors into the classes callers tell apart.
func errClass(err error) string {
	switch {
	case err == nil || err == io.EOF:
		return "eof"
	case errors.Is(err, ErrBadMagic):
		return "bad magic"
	case strings.Contains(err.Error(), "truncated") || strings.Contains(err.Error(), "read global header"):
		return "truncated"
	}
	return "bad record"
}

// drain reads a Source to its end: the packets, and the error that ended it
// (io.EOF after a clean end). An error must come alone, after the packets
// before it, and leave the source at EOF.
func drain(t *testing.T, s *Source, batch int) ([]pkt.Packet, error) {
	t.Helper()
	var got []pkt.Packet
	for {
		b, err := s.Next()
		if err != nil {
			if len(b) != 0 {
				t.Fatalf("Next returned %d packets with %v", len(b), err)
			}
			if _, again := s.Next(); again != io.EOF {
				t.Fatalf("Next after %v: %v, want io.EOF", err, again)
			}
			return got, err
		}
		if len(b) == 0 || len(b) > batch {
			t.Fatalf("batch of %d packets at size %d", len(b), batch)
		}
		got = append(got, b...)
	}
}

// checkAgainstNaive decodes data through the block decoder behind readers
// that split it differently, and per record, and holds each to naiveRead.
func checkAgainstNaive(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := naiveRead(data)
	check := func(name string, got []pkt.Packet, err error) {
		t.Helper()
		if errClass(err) != errClass(wantErr) {
			t.Fatalf("%s: ended with %v, reference with %v", name, err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d packets, reference %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: packet %d is %+v, reference %+v", name, i, got[i], want[i])
			}
		}
	}
	readers := map[string]func(io.Reader) io.Reader{
		"whole":   func(r io.Reader) io.Reader { return r },
		"onebyte": iotest.OneByteReader,
		"half":    iotest.HalfReader,
		"dataerr": iotest.DataErrReader,
	}
	for name, wrap := range readers {
		for _, batch := range []int{1, 7, 4096} {
			got, err := drain(t, NewSource(wrap(bytes.NewReader(data)), batch), batch)
			check(fmt.Sprintf("%s reader, batch %d", name, batch), got, err)
		}
	}
	all, err := ReadAll(bytes.NewReader(data))
	check("ReadAll", all, err)

	var got []pkt.Packet
	r := NewReader(bytes.NewReader(data))
	for err = nil; err == nil; {
		var p pkt.Packet
		if err = r.ReadPacket(&p); err == nil {
			got = append(got, p)
		}
	}
	check("ReadPacket", got, err)
}

// record frames body as one pcap record.
func record(ts time.Duration, orig uint32, body []byte) []byte {
	rec := binary.LittleEndian.AppendUint32(nil, uint32(ts/time.Second))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(ts%time.Second/time.Microsecond))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(body)))
	rec = binary.LittleEndian.AppendUint32(rec, orig)
	return append(rec, body...)
}

func capture(t testing.TB, n int) []byte {
	var buf bytes.Buffer
	packets := make([]pkt.Packet, n)
	for i := range packets {
		packets[i] = mkPacket(i)
	}
	if err := WriteAll(&buf, packets); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// body returns p's headers as a captured slice of incl bytes: cut to the
// first 16 TCP bytes at 36, followed by payload bytes above 40.
func body(p pkt.Packet, incl int) []byte {
	b := make([]byte, max(incl, pkt.HeaderBytes))
	p.MarshalHeaders(b)
	for i := pkt.HeaderBytes; i < len(b); i++ {
		b[i] = byte(i)
	}
	return b[:incl]
}

// ihl15 is the record that crashed UnmarshalHeaders: 30 captured bytes whose
// IP header claims 60.
func ihl15() []byte {
	b := body(mkPacket(1), 30)
	b[0] = 0x4f
	return record(time.Second, 1500, b)
}

func crashers(t testing.TB) map[string][]byte {
	good := capture(t, 3)
	// A 94-byte record first puts the captured-length field of record 1169
	// across the 64 KiB boundary.
	straddle := append(capture(t, 0), record(0, 78, body(mkPacket(0), 78))...)
	straddle = append(straddle, capture(t, 1172)[GlobalHeaderLen:]...)
	return map[string][]byte{
		"ihl15":     append(append([]byte(nil), good...), ihl15()...),
		"origwrap":  append(append([]byte(nil), good...), record(0, 70000, body(mkPacket(2), 40))...),
		"maxincl":   append(append([]byte(nil), good...), record(0, 65535, body(mkPacket(2), maxIncl))...),
		"toolarge":  append(append([]byte(nil), good...), record(0, 65535, body(mkPacket(2), maxIncl+1))...),
		"incl0":     append(append([]byte(nil), good...), record(0, 40, nil)...),
		"straddle":  straddle,
		"linktype":  append(append([]byte(nil), good[:20]...), 1, 0, 0, 0),
		"shortorig": append(append([]byte(nil), good...), record(0, 20, body(mkPacket(2), 40))...),
	}
}

func TestBlockDecoderMatchesNaive(t *testing.T) {
	for n := 0; n <= 3; n++ {
		good := capture(t, n)
		// Truncated at every byte of the last two records (and of the global header).
		for cut := max(0, len(good)-2*recordLen); cut <= len(good); cut++ {
			checkAgainstNaive(t, good[:cut])
		}
	}
	for name, data := range crashers(t) {
		t.Run(name, func(t *testing.T) { checkAgainstNaive(t, data) })
	}
	// More than one block, ended inside a record.
	big := capture(t, 3000)
	checkAgainstNaive(t, big)
	checkAgainstNaive(t, big[:len(big)-17])
}

// TestMixedCapturedLengths: records with 36, 40, 60 and 1500 captured bytes
// in one capture decode to the packets they hold; the payload length comes
// from the wire length, and IP options move the TCP header.
func TestMixedCapturedLengths(t *testing.T) {
	data := capture(t, 0)
	var want []pkt.Packet
	for i, incl := range []int{36, 40, 60, 1500, 60, 36} {
		p := mkPacket(i + 1)
		p.PayloadLen = uint16(100 + i)
		b := body(p, incl)
		if i == 4 { // 60 bytes: a 40-byte IP header (20 of options), then TCP
			b = append(append(b[:20:20], make([]byte, 20)...), body(p, 40)[20:]...)
			b[0] = 0x4a
		}
		data = append(data, record(p.Timestamp, uint32(p.TotalLen()), b)...)
		want = append(want, p)
	}
	got, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	checkAgainstNaive(t, data)
}

// TestRejectedRecordsNameTheRecord: the two records that used to panic or
// wrap come back as errors naming record 3, after the three packets before
// them, from ReadPacket and from Source.Next.
func TestRejectedRecordsNameTheRecord(t *testing.T) {
	all := crashers(t)
	for _, name := range []string{"ihl15", "origwrap"} {
		data := all[name]
		got, err := drain(t, NewSource(bytes.NewReader(data), 64), 64)
		if len(got) != 3 || err == nil || !strings.Contains(err.Error(), "record 3") {
			t.Errorf("%s: Source gave %d packets and %v, want 3 and an error naming record 3", name, len(got), err)
		}
		r := NewReader(bytes.NewReader(data))
		var p pkt.Packet
		for i := 0; i < 3; i++ {
			if err := r.ReadPacket(&p); err != nil {
				t.Fatalf("%s: ReadPacket %d: %v", name, i, err)
			}
		}
		if err := r.ReadPacket(&p); err == nil || !strings.Contains(err.Error(), "record 3") {
			t.Errorf("%s: ReadPacket gave %v, want an error naming record 3", name, err)
		}
	}
}

// TestWriterFlushDrainsBlock: records sit in the block until Flush, and a
// failed Write comes back from it.
func TestWriterFlushDrainsBlock(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	p := mkPacket(1)
	if err := w.WritePacket(&p); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes written before Flush", buf.Len())
	}
	if err := w.Flush(); err != nil || int64(buf.Len()) != Size(1) {
		t.Fatalf("after Flush: %d bytes, %v", buf.Len(), err)
	}
	if err := w.Flush(); err != nil || int64(buf.Len()) != Size(1) {
		t.Fatalf("second Flush: %d bytes, %v", buf.Len(), err)
	}
	failing := NewWriter(errWriter{})
	if err := failing.Flush(); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("Flush on a failing writer: %v", err)
	}
}

// TestReadErrorAfterPackets: a failing io.Reader ends the source with its
// error, after the packets read before it.
func TestReadErrorAfterPackets(t *testing.T) {
	r := io.MultiReader(bytes.NewReader(capture(t, 3)), iotest.ErrReader(io.ErrClosedPipe))
	got, err := drain(t, NewSource(r, 64), 64)
	if len(got) != 3 || !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("%d packets and %v, want 3 and the reader's error", len(got), err)
	}
}

type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func FuzzPcapSource(f *testing.F) {
	good := capture(f, 3)
	f.Add(good)
	for cut := len(good) - 2*recordLen; cut < len(good); cut++ {
		f.Add(good[:cut])
	}
	for _, data := range crashers(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstNaive(t, data) })
}
