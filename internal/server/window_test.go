package server

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"flowzip/internal/core"
	"flowzip/internal/dist"
	"flowzip/internal/trace"
)

// streamBatches sends tr through c in fixed-size batches and closes the
// session, returning the summary.
func streamBatches(t *testing.T, c *Client, tr *trace.Trace, batch int) dist.SessionSummary {
	t.Helper()
	for off := 0; off < tr.Len(); off += batch {
		hi := off + batch
		if hi > tr.Len() {
			hi = tr.Len()
		}
		if err := c.Send(tr.Packets[off:hi]); err != nil {
			t.Fatalf("send [%d:%d): %v", off, hi, err)
		}
	}
	sum, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestWindowedIngestEquivalence is the tentpole property: at every credit
// window — stop-and-wait, partial pipelining, the default — each tenant's
// archive stays byte-identical to a serial Compress of the same packets. The
// window changes scheduling only, never bytes.
func TestWindowedIngestEquivalence(t *testing.T) {
	for _, window := range []int{1, 4, 32} {
		window := window
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			defer checkGoroutines(t)()
			dir := t.TempDir()
			d, err := New(Config{Dir: dir, Net: dist.NetConfig{Window: window}})
			if err != nil {
				t.Fatal(err)
			}
			traces := map[string]*trace.Trace{
				"web":     webTrace(40, 250),
				"fractal": fractalTrace(41, 7000),
				"p2p":     p2pTrace(42, 900),
			}
			for tenant, tr := range traces {
				c, err := DialSession(d.Addr().String(), tenant, core.DefaultOptions(),
					dist.NetConfig{Window: window})
				if err != nil {
					t.Fatal(err)
				}
				if got := c.Window(); got != window {
					t.Errorf("tenant %s: effective window %d, want %d", tenant, got, window)
				}
				sum := streamBatches(t, c, tr, 97)
				if sum.Packets != int64(tr.Len()) {
					t.Errorf("tenant %s: summary %d packets, want %d", tenant, sum.Packets, tr.Len())
				}
			}
			if err := d.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			for tenant, tr := range traces {
				segs := segments(t, dir, tenant)
				if len(segs) != 1 {
					t.Fatalf("tenant %s: %d segments, want 1", tenant, len(segs))
				}
				got, err := os.ReadFile(segs[0])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, serialBytes(t, tr)) {
					t.Errorf("tenant %s: windowed archive differs from serial Compress", tenant)
				}
			}
		})
	}
}

// TestWindowedRotationEquivalence: pipelining composes with rotation — the
// size boundary still cuts exact per-segment packet counts and every segment
// matches a serial Compress of its packet range, with many batches in flight.
func TestWindowedRotationEquivalence(t *testing.T) {
	defer checkGoroutines(t)()
	dir := t.TempDir()
	d, err := New(Config{
		Dir:      dir,
		Net:      dist.NetConfig{Window: 16},
		Rotation: Rotation{MaxPackets: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := fractalTrace(43, 1700)
	c, err := DialSession(d.Addr().String(), "rot", core.DefaultOptions(), dist.NetConfig{Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	streamBatches(t, c, tr, 64)
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	segs := segments(t, dir, "rot")
	if want := 4; len(segs) != want { // 500+500+500+200
		t.Fatalf("%d segments, want %d", len(segs), want)
	}
	off := 0
	for i, seg := range segs {
		meta, err := ReadSegmentMeta(seg)
		if err != nil {
			t.Fatal(err)
		}
		sub := &trace.Trace{Packets: tr.Packets[off : off+int(meta.Packets)]}
		got, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, serialBytes(t, sub)) {
			t.Errorf("segment %d differs from serial Compress of its packet range", i)
		}
		off += int(meta.Packets)
	}
	if off != tr.Len() {
		t.Errorf("segments cover %d packets, want %d", off, tr.Len())
	}
}

// TestWindowedDisconnectLosesOnlyUnacked pins the durability contract under
// pipelining: after an abort mid-stream, the flushed segment is a whole-batch
// prefix of the stream covering at least every batch the client saw acked,
// and its bytes are exactly a serial Compress of that prefix. Nothing acked
// is lost; nothing torn is written.
func TestWindowedDisconnectLosesOnlyUnacked(t *testing.T) {
	defer checkGoroutines(t)()
	dir := t.TempDir()
	d, err := New(Config{Dir: dir, Net: dist.NetConfig{Window: 4}})
	if err != nil {
		t.Fatal(err)
	}
	tr := fractalTrace(44, 4000)
	c, err := DialSession(d.Addr().String(), "flaky", core.DefaultOptions(), dist.NetConfig{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 100
	const batches = 30 // well past the window: Send must consume acks
	for i := 0; i < batches; i++ {
		if err := c.Send(tr.Packets[i*batch : (i+1)*batch]); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	ackedBatches, ackedPackets := c.acked, c.ackedP
	if ackedBatches < batches-4 {
		t.Errorf("acked %d batches after %d sends with window 4, want >= %d", ackedBatches, batches, batches-4)
	}
	if ackedPackets != ackedBatches*batch {
		t.Errorf("acked %d packets for %d batches, want %d", ackedPackets, ackedBatches, ackedBatches*batch)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for d.ActiveSessions() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	segs := segments(t, dir, "flaky")
	if len(segs) != 1 {
		t.Fatalf("%d segments after disconnect, want 1", len(segs))
	}
	meta, err := ReadSegmentMeta(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if meta.Reason != ReasonDisconnect {
		t.Errorf("segment reason %q, want %q", meta.Reason, ReasonDisconnect)
	}
	// The daemon may have accepted in-flight batches the client never saw
	// acked — but never a torn batch, never fewer than the acked watermark,
	// never more than was sent.
	if meta.Packets%batch != 0 {
		t.Errorf("flushed %d packets: not a whole-batch prefix of %d-packet batches", meta.Packets, batch)
	}
	if meta.Packets < ackedPackets {
		t.Errorf("flushed %d packets < %d acked: durability broken", meta.Packets, ackedPackets)
	}
	if meta.Packets > batches*batch {
		t.Errorf("flushed %d packets > %d sent", meta.Packets, batches*batch)
	}
	sub := &trace.Trace{Packets: tr.Packets[:meta.Packets]}
	got, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, serialBytes(t, sub)) {
		t.Error("disconnect segment differs from serial Compress of the flushed prefix")
	}
}

// TestWindowedDrain: under a pipelined window the drain notice may arrive
// between Sends or only at Close; either way the client ends with a Drained
// summary and the flushed segment is a serial-equivalent whole-batch prefix.
func TestWindowedDrain(t *testing.T) {
	defer checkGoroutines(t)()
	dir := t.TempDir()
	d, err := New(Config{Dir: dir, Net: dist.NetConfig{Window: 8}})
	if err != nil {
		t.Fatal(err)
	}
	tr := fractalTrace(45, 3000)
	c, err := DialSession(d.Addr().String(), "drainy", core.DefaultOptions(), dist.NetConfig{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the window plus one: the last Send blocks for an ack, so at
	// least one batch is provably enqueued before the drain starts — a
	// pipelined Send alone gives no such guarantee.
	const batch = 100
	const preload = 9 * batch
	for off := 0; off < preload; off += batch {
		if err := c.Send(tr.Packets[off : off+batch]); err != nil {
			t.Fatal(err)
		}
	}
	if c.acked < 1 {
		t.Fatalf("no batch acked after filling the window")
	}
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- d.Shutdown(ctx)
	}()
	// The sends below race the drain notice, not the start of the goroutine
	// above: left unscheduled for the 21 round trips they take (1 run in 300
	// on two CPUs), it let the session close undrained.
	<-d.drain
	for off := preload; off < tr.Len(); off += batch {
		if err := c.Send(tr.Packets[off : off+batch]); err != nil {
			break // drain notice consumed a window refill
		}
	}
	sum, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Drained {
		t.Errorf("summary %+v does not carry the Drained flag", sum)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	segs := segments(t, dir, "drainy")
	if len(segs) != 1 {
		t.Fatalf("%d segments after drain, want 1", len(segs))
	}
	meta, err := ReadSegmentMeta(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if meta.Packets%batch != 0 || meta.Packets < batch {
		t.Errorf("drained %d packets: not a non-empty whole-batch prefix", meta.Packets)
	}
	if meta.Packets != sum.Packets {
		t.Errorf("segment %d packets, summary says %d", meta.Packets, sum.Packets)
	}
	sub := &trace.Trace{Packets: tr.Packets[:meta.Packets]}
	got, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, serialBytes(t, sub)) {
		t.Error("drained segment differs from serial Compress of the flushed prefix")
	}
}
