package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"flowzip/internal/flowgen"
	"flowzip/internal/trace"
)

func webTrace(seed uint64, flows int) *trace.Trace {
	cfg := flowgen.DefaultWebConfig()
	cfg.Seed = seed
	cfg.Flows = flows
	cfg.Duration = 10 * time.Second
	return flowgen.Web(cfg)
}

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

// totalAlloc reports the heap bytes f allocates.
func totalAlloc(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestReadFrameHugeResultBounded: a packets frame may declare up to
// maxPacketsPayload, the most any frame may, but the reader must reserve only
// what the peer actually delivers; a control frame over its own bound is
// refused before its payload is read.
func TestReadFrameHugeResultBounded(t *testing.T) {
	conn := newScriptConn(binary.AppendUvarint([]byte{framePackets}, maxPacketsPayload), []byte("only this much"))
	var err error
	alloc := totalAlloc(func() { _, _, err = readFrame(conn, bufio.NewReader(conn), 0, maxPacketsPayload) })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated 16 MiB packets frame: error %v, want unexpected EOF", err)
	}
	if alloc >= 1<<20 {
		t.Errorf("a 5-byte packets header made readFrame allocate %d bytes, want < 1 MiB", alloc)
	}

	// Before admission the daemon reads control frames only: a hello that
	// declares more than maxControlPayload is refused unread.
	conn = newScriptConn(binary.AppendUvarint([]byte{frameHello}, 1<<30))
	alloc = totalAlloc(func() { _, _, err = NewSessionConn(conn, NetConfig{}).Accept() })
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("1 GiB hello: error %v, want the control-frame limit", err)
	}
	if alloc >= 1<<20 {
		t.Errorf("a 1 GiB hello header made Accept allocate %d bytes, want < 1 MiB", alloc)
	}

	// A payload beyond the pooled sizes that does arrive is returned whole.
	big := bytes.Repeat([]byte{0xab}, maxPooledPayload+4097)
	conn = newScriptConn(binary.AppendUvarint([]byte{framePackets}, uint64(len(big))), big)
	typ, fp, err := readFrame(conn, bufio.NewReader(conn), 0, maxPacketsPayload)
	if err != nil || typ != framePackets || !bytes.Equal(fp.b, big) {
		t.Fatalf("large packets frame: type %d, %d bytes, err %v", typ, len(fp.b), err)
	}
	fp.release()
}
