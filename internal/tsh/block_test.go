package tsh

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
	"time"
	"unsafe"

	"flowzip/internal/alloctest"
	"flowzip/internal/pkt"
)

// naiveRead is the reference the block decoder is held to: one io.ReadFull
// per record and its own parse of the 44 bytes — the reader this package had
// before the block codec, with the TCP fields at offset 28 whatever the IHL.
// It returns the packets before the first error and the error.
func naiveRead(data []byte) ([]pkt.Packet, error) {
	r := bytes.NewReader(data)
	var out []pkt.Packet
	for {
		var rec [RecordLen]byte
		if n, err := io.ReadFull(r, rec[:]); err == io.EOF && n == 0 {
			return out, io.EOF
		} else if err != nil {
			return out, ErrShortRecord
		}
		ip, tcp := rec[8:28], rec[28:44]
		if ip[0]>>4 != 4 || ip[0]&0x0f < 5 {
			return out, fmt.Errorf("record %d: bad IP header", len(out))
		}
		p := pkt.Packet{
			Timestamp: time.Duration(binary.BigEndian.Uint32(rec[0:4]))*time.Second +
				time.Duration(binary.BigEndian.Uint32(rec[4:8])&0xffffff)*time.Microsecond,
			IPID: binary.BigEndian.Uint16(ip[4:6]), TTL: ip[8], Proto: ip[9],
			SrcIP:   pkt.IPv4(binary.BigEndian.Uint32(ip[12:16])),
			DstIP:   pkt.IPv4(binary.BigEndian.Uint32(ip[16:20])),
			SrcPort: binary.BigEndian.Uint16(tcp[0:2]), DstPort: binary.BigEndian.Uint16(tcp[2:4]),
			Seq: binary.BigEndian.Uint32(tcp[4:8]), Ack: binary.BigEndian.Uint32(tcp[8:12]),
			Flags: pkt.TCPFlags(tcp[13]), Window: binary.BigEndian.Uint16(tcp[14:16]),
		}
		payload := int(binary.BigEndian.Uint16(ip[2:4])) - int(ip[0]&0x0f)*4 - max(20, int(tcp[12]>>4)*4)
		if payload > 0 {
			p.PayloadLen = uint16(payload)
		}
		out = append(out, p)
	}
}

func errClass(err error) string {
	switch {
	case err == nil || err == io.EOF:
		return "eof"
	case errors.Is(err, ErrShortRecord):
		return "truncated"
	}
	return "bad record"
}

// drain reads a batch reader to its end: the packets, and the error that
// ended it (io.EOF after a clean end). An error must come alone, after the
// packets before it, and leave the reader at EOF.
func drain(t *testing.T, s *pkt.BatchReader, batch int) ([]pkt.Packet, error) {
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
			s := pkt.NewBatchReader(wrap(bytes.NewReader(data)), &Decoder{}, batch)
			got, err := drain(t, s, batch)
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

// withIHL returns three records whose last claims an IP header of ihl words.
func withIHL(t testing.TB, ihl byte) []byte {
	data := capture(t, 3)
	data[2*RecordLen+8] = 0x40 | ihl
	return data
}

func TestBlockDecoderMatchesNaive(t *testing.T) {
	for n := 0; n <= 3; n++ {
		good := capture(t, n)
		for cut := max(0, len(good)-2*RecordLen); cut <= len(good); cut++ {
			checkAgainstNaive(t, good[:cut])
		}
	}
	for ihl := byte(0); ihl <= 15; ihl++ {
		checkAgainstNaive(t, withIHL(t, ihl))
	}
	notIP := capture(t, 3)
	notIP[RecordLen+8] = 0x65
	checkAgainstNaive(t, notIP)
	// More than one block, ended inside a record.
	big := capture(t, 4000)
	checkAgainstNaive(t, big)
	checkAgainstNaive(t, big[:len(big)-17])
}

// TestIPOptionsDecode: a record whose IP header carried options (IHL 6-15;
// NLANR traces have them) used to abort the run with "short TCP header" or
// panic. The 44 bytes hold the TCP fields at offset 28 regardless, and the
// payload length is net of the options.
func TestIPOptionsDecode(t *testing.T) {
	for ihl := 6; ihl <= 15; ihl++ {
		want := mkPacket(2)
		want.PayloadLen = 700
		var rec [RecordLen]byte
		PutRecord(rec[:], &want)
		rec[8] = 0x40 | byte(ihl)
		binary.BigEndian.PutUint16(rec[10:12], uint16(want.TotalLen()+ihl*4-20))

		got, err := ReadAll(bytes.NewReader(rec[:]))
		if err != nil || len(got) != 1 || got[0] != want {
			t.Fatalf("IHL %d: %+v, %v; want %+v", ihl, got, err, want)
		}
	}
	// IHL below 5 is still no IP header, named by record number.
	_, err := ReadAll(bytes.NewReader(withIHL(t, 4)))
	if err == nil || errors.Is(err, ErrShortRecord) {
		t.Fatalf("IHL 4: %v, want a bad-header error", err)
	}
}

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
	if err := w.Flush(); err != nil || buf.Len() != RecordLen {
		t.Fatalf("after Flush: %d bytes, %v", buf.Len(), err)
	}
	failing := NewWriter(errWriter{})
	if err := failing.WritePacket(&p); err != nil {
		t.Fatal(err)
	}
	if err := failing.Flush(); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("Flush on a failing writer: %v", err)
	}
}

type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// sourceAllocMax is the allocation bound stated at Decoder: a
// pkt.BatchReader over a Decoder reading any stream to its end allocates its
// 64 KiB block, its batch of packets and at most 1 KiB besides (the reader,
// the decoder and the error that ends a bad stream).
func sourceAllocMax(batch int) uint64 {
	return pkt.FileBuffer + uint64(batch)*uint64(unsafe.Sizeof(pkt.Packet{})) + 1<<10
}

// checkSourceAlloc holds a source over data, made and read to its end, to
// sourceAllocMax at each batch size.
func checkSourceAlloc(t *testing.T, data []byte) {
	t.Helper()
	var r bytes.Reader
	for _, batch := range []int{1, 7, 4096} {
		read := func() {
			r.Reset(data)
			for s := pkt.NewBatchReader(&r, &Decoder{}, batch); ; {
				if _, err := s.Next(); err != nil {
					return
				}
			}
		}
		if got := alloctest.Least(read); got > sourceAllocMax(batch) {
			t.Fatalf("reading %d bytes at batch %d allocated %d, bound %d", len(data), batch, got, sourceAllocMax(batch))
		}
	}
}

// FuzzTSHSource holds the block decoder to the naive reader, packet for
// packet and error for error, and to sourceAllocMax, on every input.
func FuzzTSHSource(f *testing.F) {
	good := capture(f, 3)
	f.Add(good)
	for cut := len(good) - 2*RecordLen; cut < len(good); cut++ {
		f.Add(good[:cut])
	}
	f.Add(withIHL(f, 15))
	f.Add(withIHL(f, 7))
	f.Add(capture(f, pkt.FileBuffer/RecordLen+2)) // a record across the 64 KiB boundary
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstNaive(t, data)
		checkSourceAlloc(t, data)
	})
}
