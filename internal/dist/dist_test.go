package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"time"

	"flowzip/internal/core"
	"flowzip/internal/flowgen"
	"flowzip/internal/pkt"
	"flowzip/internal/trace"
)

func fractalTrace(seed uint64, packets int) *trace.Trace {
	cfg := flowgen.DefaultFractalConfig()
	cfg.Seed = seed
	cfg.Packets = packets
	tr := flowgen.Fractal(cfg)
	if !tr.IsSorted() {
		tr.Sort()
	}
	return tr
}

func p2pTrace(seed uint64, flows int) *trace.Trace {
	cfg := flowgen.DefaultP2PConfig()
	cfg.Seed = seed
	cfg.Flows = flows
	tr := flowgen.P2P(cfg)
	if !tr.IsSorted() {
		tr.Sort()
	}
	return tr
}

// adversarialTrace is core's test generator of the same name: flows of equal
// packet count with pairwise distinct short-flow vectors, so shard template
// tables dedupe next to nothing and the merge walks for nearly every flow.
func adversarialTrace(conversations int) *trace.Trace {
	const lengths = 46 // short-flow packet counts 3..48, all under ShortMax
	tr := trace.New("adversarial")
	ts := time.Duration(0)
	for i := 0; i < conversations; i++ {
		client := pkt.IPv4(0x0A000001 + uint32(i))
		server := pkt.IPv4(0xC0A80001 + uint32(i%7))
		sport, dport := uint16(10000+i), uint16(80)
		n := 3 + i%lengths
		j := i / lengths // disambiguates flows of equal length, bit by bit
		for p := 0; p < n; p++ {
			var flags pkt.TCPFlags
			switch p {
			case 0:
				flags = pkt.FlagSYN
			case n - 1:
				flags = pkt.FlagRST
			default:
				flags = pkt.FlagACK
			}
			var size uint16
			if p > 0 && p < n-1 && (j>>(p-1))&1 == 1 {
				size = 900 // SizeClassLarge; bit unset stays SizeClassEmpty
			}
			tr.Packets = append(tr.Packets, pkt.Packet{
				Timestamp: ts,
				SrcIP:     client, DstIP: server,
				SrcPort: sport, DstPort: dport, Proto: 6,
				Flags: flags, PayloadLen: size,
			})
			ts += 37 * time.Microsecond
		}
	}
	return tr
}

func encodeArchive(t testing.TB, a *core.Archive) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkGoroutines fails the test if the goroutine count does not settle
// back to the baseline captured at call time; use via defer before starting
// coordinators and workers.
func checkGoroutines(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if now := runtime.NumGoroutine(); now > before {
			t.Errorf("goroutines leaked: %d before, %d after", before, now)
		}
	}
}

// TestMergeShardFilesByteIdentical is the file-transport acceptance
// property: shard × N .fzshard files + merge must reproduce the serial
// archive byte for byte, on every workload, at 1/2/4/8 shards.
func TestMergeShardFilesByteIdentical(t *testing.T) {
	traces := map[string]*trace.Trace{
		"web":         webTrace(11, 500),
		"fractal":     fractalTrace(12, 12000),
		"p2p":         p2pTrace(13, 2000),
		"adversarial": adversarialTrace(400),
	}
	dir := t.TempDir()
	for name, tr := range traces {
		serial, err := core.Compress(tr, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want := encodeArchive(t, serial)
		for _, count := range []int{1, 2, 4, 8} {
			paths := make([]string, count)
			for i := 0; i < count; i++ {
				r, err := core.CompressShardSource(trace.Batches(tr, 0), core.DefaultOptions(), i, count)
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(dir, name+".fzshard")
				f, err := os.Create(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := EncodeShardState(f, r); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				// Shuffle by filling back to front: merge order must come
				// from the headers, not the argument order.
				paths[count-1-i] = path + "." + string(rune('a'+i))
				if err := os.Rename(path, paths[count-1-i]); err != nil {
					t.Fatal(err)
				}
			}
			merged, err := MergeShardFiles(paths)
			if err != nil {
				t.Fatalf("%s shards %d: %v", name, count, err)
			}
			if got := encodeArchive(t, merged); !bytes.Equal(want, got) {
				t.Errorf("%s shards %d: merged archive differs from serial", name, count)
			}
			for _, p := range paths {
				os.Remove(p)
			}
		}
	}
}

// TestMergeShardFilesMismatch checks that shard files from different runs
// are rejected with a clear message instead of silently merged.
func TestMergeShardFilesMismatch(t *testing.T) {
	tr := webTrace(14, 200)
	dir := t.TempDir()
	write := func(name string, opts core.Options, index, count int) string {
		r, err := core.CompressShardSource(trace.Batches(tr, 0), opts, index, count)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := EncodeShardState(f, r); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return path
	}
	good0 := write("good0.fzshard", core.DefaultOptions(), 0, 2)
	good1 := write("good1.fzshard", core.DefaultOptions(), 1, 2)

	other := core.DefaultOptions()
	other.LimitPct = 5
	foreign := write("foreign.fzshard", other, 1, 2)
	if _, err := MergeShardFiles([]string{good0, foreign}); err == nil {
		t.Error("shards with different options merged")
	}

	if _, err := MergeShardFiles([]string{good0}); err == nil {
		t.Error("incomplete shard set merged")
	}
	if _, err := MergeShardFiles([]string{good0, good0}); err == nil {
		t.Error("duplicate shard merged")
	}
	if _, err := MergeShardFiles(nil); err == nil {
		t.Error("empty path list merged")
	}
	if _, err := MergeShardFiles([]string{filepath.Join(dir, "absent.fzshard")}); err == nil {
		t.Error("missing file merged")
	}

	// A complete set must still work after all that.
	if _, err := MergeShardFiles([]string{good1, good0}); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
}

// TestCompressDistributedByteIdentical is the network-transport acceptance
// property: an in-process coordinator and TCP workers over loopback must
// reproduce the serial archive byte for byte at every shard count.
func TestCompressDistributedByteIdentical(t *testing.T) {
	defer checkGoroutines(t)()
	traces := map[string]*trace.Trace{
		"web":     webTrace(21, 500),
		"fractal": fractalTrace(22, 12000),
		"p2p":     p2pTrace(23, 2000),
	}
	for name, tr := range traces {
		serial, err := core.Compress(tr, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want := encodeArchive(t, serial)
		for _, shards := range []int{1, 2, 4, 8} {
			src := func() (core.PacketSource, error) { return trace.Batches(tr, 0), nil }
			arch, err := CompressDistributed(src, core.DefaultOptions(), shards, 3)
			if err != nil {
				t.Fatalf("%s shards %d: %v", name, shards, err)
			}
			if got := encodeArchive(t, arch); !bytes.Equal(want, got) {
				t.Errorf("%s shards %d: distributed archive differs from serial", name, shards)
			}
		}
	}
}

// TestCoordinatorReassignsDeadWorkersShard kills a worker mid-assignment:
// the coordinator must re-queue the shard and let a healthy worker finish
// the run, still byte-identical to serial.
func TestCoordinatorReassignsDeadWorkersShard(t *testing.T) {
	defer checkGoroutines(t)()
	tr := webTrace(31, 300)
	serial, err := core.Compress(tr, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Shards: 2, Opts: core.DefaultOptions(),
		NetConfig: NetConfig{ResultTimeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}

	// A raw fake worker takes an assignment and dies without answering.
	conn, err := net.Dial("tcp", coord.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, time.Second, frameHello, encodeHello()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	typ, _, err := readFrame(conn, br, 5*time.Second, maxControlPayload)
	if err != nil || typ != frameAssign {
		t.Fatalf("fake worker: frame %v err %v, want assign", typ, err)
	}
	conn.Close() // dies holding a shard

	done := make(chan error, 1)
	go func() {
		w, err := Dial(coord.Addr().String(), WorkerConfig{
			Source: func() (core.PacketSource, error) { return trace.Batches(tr, 0), nil },
		})
		if err != nil {
			done <- err
			return
		}
		done <- w.Run()
	}()

	arch, err := coord.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if err := <-done; err != nil {
		t.Errorf("surviving worker: %v", err)
	}
	if !bytes.Equal(encodeArchive(t, serial), encodeArchive(t, arch)) {
		t.Error("archive after reassignment differs from serial")
	}
}

// TestCoordinatorRetryExhaustion checks the failure path: when a shard
// keeps failing, Wait gives up with the recorded cause instead of hanging.
func TestCoordinatorRetryExhaustion(t *testing.T) {
	defer checkGoroutines(t)()
	coord, err := NewCoordinator(CoordinatorConfig{
		Shards: 2, Opts: core.DefaultOptions(),
		NetConfig: NetConfig{Retries: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := errors.New("no trace here")
	// Each failing worker reports one failure then is dropped; 2 shards ×
	// 2 retries = at most 4 workers before the run is abandoned.
	for i := 0; i < 4; i++ {
		w, err := Dial(coord.Addr().String(), WorkerConfig{
			Source: func() (core.PacketSource, error) { return nil, bad },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err == nil {
			break // coordinator already gave up and said done
		}
	}
	if _, err := coord.Wait(); err == nil {
		t.Fatal("coordinator succeeded although every worker failed")
	} else if !errors.Is(err, bad) && !bytes.Contains([]byte(err.Error()), []byte("no trace here")) {
		t.Errorf("error %v does not carry the worker failure", err)
	}
}

// TestCoordinatorRejectsForeignResult sends a result blob compressed under
// different options: the coordinator must reject it, re-queue the shard and
// still finish the run with a healthy worker.
func TestCoordinatorRejectsForeignResult(t *testing.T) {
	defer checkGoroutines(t)()
	tr := webTrace(41, 200)
	coord, err := NewCoordinator(CoordinatorConfig{
		Shards: 1, Opts: core.DefaultOptions(),
		NetConfig: NetConfig{ResultTimeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", coord.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, time.Second, frameHello, encodeHello()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if typ, _, err := readFrame(conn, br, 5*time.Second, maxControlPayload); err != nil || typ != frameAssign {
		t.Fatalf("fake worker: frame %v err %v, want assign", typ, err)
	}
	foreign := core.DefaultOptions()
	foreign.LimitPct = 7
	blob := shardBlob(t, tr, foreign, 0, 1)
	if err := writeFrame(conn, time.Second, frameResult, blob); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		w, err := Dial(coord.Addr().String(), WorkerConfig{
			Source: func() (core.PacketSource, error) { return trace.Batches(tr, 0), nil },
		})
		if err != nil {
			done <- err
			return
		}
		done <- w.Run()
	}()
	arch, err := coord.Wait()
	conn.Close()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	<-done
	serial, err := core.Compress(tr, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeArchive(t, serial), encodeArchive(t, arch)) {
		t.Error("archive after foreign-result rejection differs from serial")
	}
}

// TestCoordinatorCloseUnblocksWait checks graceful shutdown: Close must
// unblock Wait with an error, release connected idle workers and leave no
// goroutines behind.
func TestCoordinatorCloseUnblocksWait(t *testing.T) {
	defer checkGoroutines(t)()
	coord, err := NewCoordinator(CoordinatorConfig{Shards: 4, Opts: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() {
		_, err := coord.Wait()
		waitErr <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waitErr:
		if err == nil {
			t.Error("Wait succeeded on a closed, incomplete coordinator")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after Close")
	}
	// Close is idempotent.
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorRejectsOversizedHello pins the pre-registration
// allocation bound: a peer declaring a huge hello payload must be dropped
// without the coordinator allocating it.
func TestCoordinatorRejectsOversizedHello(t *testing.T) {
	defer checkGoroutines(t)()
	coord, err := NewCoordinator(CoordinatorConfig{Shards: 1, Opts: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	conn, err := net.Dial("tcp", coord.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// declared payload far over maxControlPayload
	if _, err := conn.Write(binary.AppendUvarint([]byte{frameHello}, 1<<30)); err != nil {
		t.Fatal(err)
	}
	// The handler must hang up instead of waiting for a gigabyte.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("coordinator answered an oversized hello instead of dropping it")
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Error("coordinator kept the oversized-hello connection open")
	}
}

// TestCoordinatorConfigValidation covers the constructor error paths.
func TestCoordinatorConfigValidation(t *testing.T) {
	if _, err := NewCoordinator(CoordinatorConfig{Shards: 0, Opts: core.DefaultOptions()}); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := NewCoordinator(CoordinatorConfig{Shards: 1000, Opts: core.DefaultOptions()}); err == nil {
		t.Error("shards over flow.MaxShards accepted")
	}
	bad := core.DefaultOptions()
	bad.ShortMax = 0
	if _, err := NewCoordinator(CoordinatorConfig{Shards: 2, Opts: bad}); err == nil {
		t.Error("invalid options accepted")
	}
	if _, err := Dial("127.0.0.1:1", WorkerConfig{}); err == nil {
		t.Error("worker without Source accepted")
	}
}

// TestIsDisconnectClassification pins the clean-shutdown heuristic: reset
// and closed connections count as the coordinator going away, but an
// assignment-wait timeout must not — exiting zero on it would silently
// shrink the fleet mid-run.
func TestIsDisconnectClassification(t *testing.T) {
	if !isDisconnect(io.EOF) {
		t.Error("EOF not classified as disconnect")
	}
	if !isDisconnect(net.ErrClosed) {
		t.Error("closed connection not classified as disconnect")
	}
	if !isDisconnect(&net.OpError{Op: "read", Err: syscall.ECONNRESET}) {
		t.Error("connection reset not classified as disconnect")
	}
	if isDisconnect(&net.OpError{Op: "read", Err: os.ErrDeadlineExceeded}) {
		t.Error("read deadline classified as disconnect")
	}
	if isDisconnect(errors.New("dist: unexpected frame")) {
		t.Error("protocol violation classified as disconnect")
	}
}

// TestCompressDistributedWorkerError checks that a run whose every source
// fails surfaces an error rather than deadlocking.
func TestCompressDistributedWorkerError(t *testing.T) {
	defer checkGoroutines(t)()
	bad := errors.New("generator exploded")
	src := func() (core.PacketSource, error) { return nil, bad }
	if _, err := CompressDistributed(src, core.DefaultOptions(), 2, 2); err == nil {
		t.Fatal("distributed run with failing sources succeeded")
	}
}
