package dist

import (
	"bytes"
	"flag"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"flowzip/internal/core"
	"flowzip/internal/pkt"
)

// updateGolden rewrites testdata/golden from the current encoders. The files
// pin the session frames across commits: regenerate them only for a
// deliberate, versioned protocol change.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current encoders")

// checkGolden compares got with the named golden file (or rewrites the file
// under -update) and returns the file's bytes.
func checkGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoder wrote %d bytes that differ from the %d golden bytes", name, len(got), len(want))
	}
	return want
}

func goldenOptions() core.Options {
	o := core.DefaultOptions()
	o.ShortMax = 40
	o.LimitPct = 2.5
	return o
}

// scriptConn is a net.Conn that reads from a prepared byte script and records
// everything written, so one half of a framed exchange runs without a peer.
type scriptConn struct {
	in   *bytes.Reader
	out  bytes.Buffer
	mark int
}

func newScriptConn(script ...[]byte) *scriptConn {
	return &scriptConn{in: bytes.NewReader(bytes.Join(script, nil))}
}

func (c *scriptConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return nil }
func (c *scriptConn) RemoteAddr() net.Addr             { return nil }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// sent returns the bytes written since the previous call: one frame, when
// called after each send.
func (c *scriptConn) sent() []byte {
	b := append([]byte(nil), c.out.Bytes()[c.mark:]...)
	c.mark = c.out.Len()
	return b
}

// goldenSession is every value one session exchange carries.
type goldenSession struct {
	tenant  string
	opts    core.Options
	batch   []pkt.Packet
	id      uint64
	window  int
	seq     int64
	packets int64
	summary SessionSummary
}

// daemonFrames sends the daemon's three answers and returns them as frames:
// openok, ack, closed.
func daemonFrames(t *testing.T, s goldenSession) [][]byte {
	t.Helper()
	conn := newScriptConn()
	d := NewSessionConn(conn, NetConfig{})
	var frames [][]byte
	for _, send := range []func() error{
		func() error { return d.SendOpenOK(s.id, s.window) },
		func() error { return d.SendAck(s.seq, s.packets) },
		func() error { return d.SendClosed(s.summary) },
	} {
		if err := send(); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, conn.sent())
	}
	return frames
}

// clientFrames runs the client half against the daemon's scripted answers. It
// returns the client's frames — hello, open, packets, close — and s with the
// daemon-side values replaced by what the client decoded.
func clientFrames(t *testing.T, s goldenSession, answers [][]byte) ([][]byte, goldenSession) {
	t.Helper()
	conn := newScriptConn(answers...)
	c := NewSessionConn(conn, NetConfig{})
	var frames [][]byte
	var err error
	if s.id, s.window, err = c.Open(s.tenant, s.opts); err != nil {
		t.Fatalf("Open: %v", err)
	}
	handshake := conn.sent()
	// Open writes hello then open; the hello frame is type, length 1, version.
	frames = append(frames, handshake[:3], handshake[3:])
	if err := c.PushAsync(s.batch); err != nil {
		t.Fatalf("PushAsync: %v", err)
	}
	frames = append(frames, conn.sent())
	var drained *SessionSummary
	if s.seq, s.packets, drained, err = c.ReadAck(); err != nil || drained != nil {
		t.Fatalf("ReadAck: drained %v, err %v", drained, err)
	}
	if s.summary, err = c.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	frames = append(frames, conn.sent())
	return frames, s
}

// TestGoldenFrameBytes pins the session frames — header and payload — byte
// for byte: each half of the exchange must send the checked-in frames, decode
// the other half's checked-in frames to the values that produced them, and
// send the same bytes again from the decoded values. The retired frame types
// 2, 3 and 5 are refused wherever the daemon half reads a frame.
func TestGoldenFrameBytes(t *testing.T) {
	want := goldenSession{
		tenant:  "golden-tenant",
		opts:    goldenOptions(),
		batch:   webTrace(20050320, 200).Packets[:64],
		id:      0x1234,
		window:  8,
		seq:     300,
		packets: 1 << 33,
		summary: SessionSummary{Packets: 1 << 33, Flows: 70000, Archives: 3, ArchiveBytes: 1 << 21, Drained: true},
	}
	daemonNames := []string{"openok.frame", "ack.frame", "closed.frame"}
	clientNames := []string{"hello.frame", "open.frame", "packets.frame", "close.frame"}

	var answers, requests [][]byte
	for i, f := range daemonFrames(t, want) {
		answers = append(answers, checkGolden(t, daemonNames[i], f))
	}
	sent, decoded := clientFrames(t, want, answers)
	for i, f := range sent {
		requests = append(requests, checkGolden(t, clientNames[i], f))
	}
	if decoded.id != want.id || decoded.window != want.window || decoded.seq != want.seq ||
		decoded.packets != want.packets || decoded.summary != want.summary {
		t.Errorf("client decoded %+v from the golden daemon frames, want %+v", decoded, want)
	}
	for i, f := range daemonFrames(t, decoded) {
		if !bytes.Equal(f, answers[i]) {
			t.Errorf("%s does not re-encode to itself", daemonNames[i])
		}
	}

	d := NewSessionConn(newScriptConn(requests...), NetConfig{})
	tenant, opts, err := d.Accept()
	if err != nil {
		t.Fatalf("Accept over the golden client frames: %v", err)
	}
	ev, err := d.Next()
	if err != nil {
		t.Fatalf("Next(packets.frame): %v", err)
	}
	if tenant != want.tenant || opts != want.opts || !reflect.DeepEqual(ev.Batch, want.batch) {
		t.Errorf("daemon decoded tenant %q, opts %+v and %d packets, want the values sent", tenant, opts, len(ev.Batch))
	}
	if end, err := d.Next(); err != nil || !end.Close {
		t.Fatalf("Next(close.frame) = %+v, %v", end, err)
	}
	decoded.tenant, decoded.opts, decoded.batch = tenant, opts, ev.Batch
	resent, _ := clientFrames(t, decoded, answers)
	for i, f := range resent {
		if !bytes.Equal(f, requests[i]) {
			t.Errorf("%s does not re-encode to itself", clientNames[i])
		}
	}
	ReleaseBatch(ev.Batch)

	// A retired type in place of hello, of open, and of a packets frame.
	for _, typ := range []byte{2, 3, 5} {
		retired := []byte{typ, 0}
		for name, script := range map[string][][]byte{
			"hello": {retired},
			"open":  {requests[0], retired},
		} {
			if _, _, err := NewSessionConn(newScriptConn(script...), NetConfig{}).Accept(); err == nil || !strings.Contains(err.Error(), frameName(typ)) {
				t.Errorf("Accept with type %d for %s: error %v, want the frame named", typ, name, err)
			}
		}
		if _, err := NewSessionConn(newScriptConn(retired), NetConfig{}).Next(); err == nil || !strings.Contains(err.Error(), "unexpected") {
			t.Errorf("Next over type %d: error %v, want an unexpected frame", typ, err)
		}
	}
}

// TestHelloRefusesVersion2: a peer speaking protocol version 2, whose open
// frame carried four decompression settings an archive does not record, is
// refused at hello with the last commit that speaks it named; so is a version
// from the future, without one.
func TestHelloRefusesVersion2(t *testing.T) {
	for v, want := range map[byte]string{
		2: "protocol version 2, want 3 (commit 48cc604 is the last to speak version 2)",
		4: "protocol version 4, want 3",
	} {
		hello := []byte{frameHello, 1, v}
		_, _, err := NewSessionConn(newScriptConn(hello), NetConfig{}).Accept()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Accept of a version-%d hello: error %v, want %q", v, err, want)
		}
	}
}
