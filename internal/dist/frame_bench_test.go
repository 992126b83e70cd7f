package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"flowzip/internal/pkt"
)

// loopbackPair returns two ends of an established loopback TCP connection,
// so the frame benchmarks measure the real conn+bufio path (deadlines,
// writev) with kernel socket buffers decoupling writer from reader.
func loopbackPair(tb testing.TB) (client, server net.Conn) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		var err error
		server, err = ln.Accept()
		done <- err
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	if err := <-done; err != nil {
		client.Close()
		tb.Fatal(err)
	}
	tb.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// writeFrameReference reproduces the pre-pooling sender: header and payload
// as two separate writes instead of one vectored one. Kept as the baseline
// the frame benchmarks compare against.
func writeFrameReference(conn net.Conn, timeout time.Duration, typ byte, payload []byte) error {
	if err := conn.SetWriteDeadline(deadline(timeout)); err != nil {
		return err
	}
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = typ
	n := binary.PutUvarint(hdr[1:], uint64(len(payload)))
	if _, err := conn.Write(hdr[:1+n]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := conn.Write(payload)
	return err
}

// readFrameReference reproduces the pre-pooling receiver: one fresh
// make([]byte, size) per frame. Kept as the baseline the frame benchmarks
// compare against.
func readFrameReference(conn net.Conn, br *bufio.Reader, timeout time.Duration, limit uint64) (byte, []byte, error) {
	if err := conn.SetReadDeadline(deadline(timeout)); err != nil {
		return 0, nil, err
	}
	typ, err := br.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	size, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, err
	}
	if size > limit {
		return 0, nil, fmt.Errorf("dist: payload %d exceeds limit %d", size, limit)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// benchFrameStream pushes b.N packets frames through a loopback connection —
// encode, frame write, frame read, decode — and reports allocs/op. The
// pooled variant is the shipping path; the unpooled variant recreates the
// pre-pooling allocation profile (fresh encode buffer, fresh payload buffer
// and fresh packet slab per frame), so BENCH_ingest.json carries the
// before/after allocs-per-frame pair from one run.
func benchFrameStream(b *testing.B, pooled bool) {
	client, server := loopbackPair(b)
	batch := fractalTrace(99, 512).Packets
	done := make(chan error, 1)
	go func() {
		var enc []byte
		for i := 0; i < b.N; i++ {
			var err error
			if pooled {
				enc = encodePacketsInto(enc, batch)
				err = writeFrame(client, time.Minute, framePackets, enc)
			} else {
				err = writeFrameReference(client, time.Minute, framePackets, encodePacketsInto(nil, batch))
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	br := bufio.NewReaderSize(server, 64<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var decoded []pkt.Packet
		if pooled {
			typ, fp, err := readFrame(server, br, time.Minute, maxPacketsPayload)
			if err != nil || typ != framePackets {
				b.Fatalf("frame %d: type %d, err %v", i, typ, err)
			}
			decoded, err = decodePackets(fp.b)
			fp.release()
			if err != nil {
				b.Fatal(err)
			}
		} else {
			typ, payload, err := readFrameReference(server, br, time.Minute, maxPacketsPayload)
			if err != nil || typ != framePackets {
				b.Fatalf("frame %d: type %d, err %v", i, typ, err)
			}
			slab, err := decodePackets(payload)
			if err != nil {
				b.Fatal(err)
			}
			// The pre-pooling decode allocated one fresh slab per frame;
			// copying out of the pooled slab reproduces exactly that
			// per-frame allocation.
			decoded = append([]pkt.Packet(nil), slab...)
			ReleaseBatch(slab)
		}
		if len(decoded) != len(batch) {
			b.Fatalf("frame %d: %d packets, want %d", i, len(decoded), len(batch))
		}
		if pooled {
			ReleaseBatch(decoded)
		}
	}
	b.StopTimer()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFrameStream is the allocs/frame acceptance pair: pooled must cut
// allocations per frame by at least half against the unpooled reference.
func BenchmarkFrameStream(b *testing.B) {
	b.Run("pooled", func(b *testing.B) { benchFrameStream(b, true) })
	b.Run("unpooled", func(b *testing.B) { benchFrameStream(b, false) })
}
