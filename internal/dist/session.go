package dist

import (
	"bufio"
	"fmt"
	"net"

	"flowzip/internal/core"
	"flowzip/internal/pkt"
)

// SessionConn wraps one framed TCP connection speaking the session exchange
// (see the protocol comment above protoVersion), from either end: the ingestion
// daemon (internal/server) drives the Accept/Next/Send* half, its capture
// clients the Open/PushAsync/ReadAck/Finish half. All frame IO runs under the
// NetConfig deadlines, so neither peer can wedge the other indefinitely.
//
// The exchange is pipelined: after Open a client may keep up to the granted
// credit window of PushAsync batches in flight before it must ReadAck; the
// daemon acks cumulatively.
type SessionConn struct {
	conn net.Conn
	br   *bufio.Reader
	nc   NetConfig
	enc  []byte // scratch for outgoing packets frames (client half)
	ack  []byte // scratch for outgoing ack frames (daemon half)
}

// NewSessionConn wraps an established connection. nc's zero fields resolve to
// the package defaults.
func NewSessionConn(conn net.Conn, nc NetConfig) *SessionConn {
	nc.fillDefaults()
	return &SessionConn{conn: conn, br: bufio.NewReader(conn), nc: nc}
}

// Close releases the underlying connection.
func (c *SessionConn) Close() error { return c.conn.Close() }

// --- daemon half ---

// Accept performs the server half of the session handshake: it consumes the
// hello and open frames and returns the requested tenant and codec options.
// The caller decides admission (quotas, option validation) and answers with
// SendOpenOK or SendFail.
func (c *SessionConn) Accept() (tenant string, opts core.Options, err error) {
	typ, fp, err := readFrame(c.conn, c.br, c.nc.FrameTimeout, maxControlPayload)
	if err != nil {
		return "", core.Options{}, fmt.Errorf("dist: session hello: %w", err)
	}
	if typ != frameHello {
		fp.release()
		return "", core.Options{}, fmt.Errorf("dist: session opened with %s, want hello", frameName(typ))
	}
	err = checkHello(fp.b)
	fp.release()
	if err != nil {
		return "", core.Options{}, fmt.Errorf("dist: session hello: %w", err)
	}
	typ, fp, err = readFrame(c.conn, c.br, c.nc.FrameTimeout, maxControlPayload)
	if err != nil {
		return "", core.Options{}, fmt.Errorf("dist: session open: %w", err)
	}
	defer fp.release()
	if typ != frameOpen {
		return "", core.Options{}, fmt.Errorf("dist: session sent %s, want open", frameName(typ))
	}
	return decodeOpen(fp.b)
}

// SendOpenOK admits the session under the given id, granting the client a
// credit window of that many in-flight batches.
func (c *SessionConn) SendOpenOK(id uint64, window int) error {
	c.ack = encodeOpenOK(c.ack, id, window)
	return writeFrame(c.conn, c.nc.FrameTimeout, frameOpenOK, c.ack)
}

// SendFail rejects the session or reports a mid-stream failure; the daemon
// hangs up afterwards.
func (c *SessionConn) SendFail(msg string) error {
	return writeFrame(c.conn, c.nc.FrameTimeout, frameFail, encodeFail(msg))
}

// SendAck acknowledges batches cumulatively: every batch up to and including
// seq is accepted, totalling packets records. The daemon sends it only after
// the batch is queued into the session pipeline, so the ack stream is the
// durability signal — anything acked survives a disconnect.
func (c *SessionConn) SendAck(seq, packets int64) error {
	c.ack = encodeAck(c.ack, uint64(seq), uint64(packets))
	return writeFrame(c.conn, c.nc.FrameTimeout, frameAck, c.ack)
}

// SendClosed reports the session summary: the answer to a clean close, or —
// with s.Drained set — the daemon's unsolicited finalization notice during
// graceful shutdown.
func (c *SessionConn) SendClosed(s SessionSummary) error {
	return writeFrame(c.conn, c.nc.FrameTimeout, frameClosed, encodeSummary(s))
}

// SessionEvent is one client frame as seen by the daemon: a packet batch, or
// the clean end of the stream.
type SessionEvent struct {
	// Batch is a pooled packet slab; nil on Close. The consumer owns it and
	// must hand it (or the slab it was split from) back with ReleaseBatch
	// exactly once, after nothing references it any more.
	Batch []pkt.Packet
	Close bool
}

// Next waits (up to ResultTimeout — an idle capture point may legitimately
// sit quiet between batches) for the client's next packets or close frame.
func (c *SessionConn) Next() (SessionEvent, error) {
	typ, fp, err := readFrame(c.conn, c.br, c.nc.ResultTimeout, maxPacketsPayload)
	if err != nil {
		return SessionEvent{}, err
	}
	defer fp.release()
	switch typ {
	case framePackets:
		batch, err := decodePackets(fp.b)
		if err != nil {
			return SessionEvent{}, err
		}
		return SessionEvent{Batch: batch}, nil
	case frameClose:
		return SessionEvent{Close: true}, nil
	default:
		return SessionEvent{}, fmt.Errorf("dist: unexpected %s frame in session", frameName(typ))
	}
}

// --- client half ---

// Open performs the client half of the handshake — hello, then open — and
// waits for admission. It returns the daemon-assigned session id and the
// granted credit window (how many batches may be in flight unacked). A fail
// frame becomes the returned error.
func (c *SessionConn) Open(tenant string, opts core.Options) (id uint64, window int, err error) {
	if err := writeFrame(c.conn, c.nc.FrameTimeout, frameHello, encodeHello()); err != nil {
		return 0, 0, err
	}
	if err := writeFrame(c.conn, c.nc.FrameTimeout, frameOpen, encodeOpen(tenant, opts)); err != nil {
		return 0, 0, err
	}
	typ, fp, err := readFrame(c.conn, c.br, c.nc.FrameTimeout, maxControlPayload)
	if err != nil {
		return 0, 0, fmt.Errorf("dist: session admission: %w", err)
	}
	defer fp.release()
	switch typ {
	case frameOpenOK:
		return decodeOpenOK(fp.b)
	case frameFail:
		return 0, 0, fmt.Errorf("dist: session rejected: %s", decodeFail(fp.b))
	default:
		return 0, 0, fmt.Errorf("dist: unexpected %s frame, want openok", frameName(typ))
	}
}

// PushAsync sends one packet batch without waiting for an ack — the caller
// tracks its credit window and calls ReadAck when it must refill. The batch
// is fully serialized into a per-connection scratch buffer before this
// returns, so the caller's slice is free for reuse immediately.
func (c *SessionConn) PushAsync(batch []pkt.Packet) error {
	c.enc = encodePacketsInto(c.enc, batch)
	return writeFrame(c.conn, c.nc.ResultTimeout, framePackets, c.enc)
}

// ReadAck reads the daemon's next answer in the data phase: a cumulative ack
// (seq covers every batch up to and including it, packets is the cumulative
// record count), an early closed frame (graceful drain — returned as the
// summary; the caller should stop streaming), or fail.
func (c *SessionConn) ReadAck() (seq, packets int64, drained *SessionSummary, err error) {
	typ, fp, err := readFrame(c.conn, c.br, c.nc.ResultTimeout, maxControlPayload)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("dist: session ack: %w", err)
	}
	defer fp.release()
	switch typ {
	case frameAck:
		s, p, err := decodeAck(fp.b)
		if err != nil {
			return 0, 0, nil, err
		}
		return int64(s), int64(p), nil, nil
	case frameClosed:
		sum, err := decodeSummary(fp.b)
		if err != nil {
			return 0, 0, nil, err
		}
		return 0, sum.Packets, &sum, nil
	case frameFail:
		return 0, 0, nil, fmt.Errorf("dist: session failed: %s", decodeFail(fp.b))
	default:
		return 0, 0, nil, fmt.Errorf("dist: unexpected %s frame, want ack", frameName(typ))
	}
}

// Finish ends the stream cleanly and returns the daemon's session summary.
// Acks for still-unconfirmed in-flight batches are drained on the way — the
// closed frame is cumulative over all of them. The daemon may have drained
// first; the summary's Drained flag says which.
func (c *SessionConn) Finish() (SessionSummary, error) {
	if err := writeFrame(c.conn, c.nc.FrameTimeout, frameClose, nil); err != nil {
		return SessionSummary{}, err
	}
	for {
		typ, fp, err := readFrame(c.conn, c.br, c.nc.ResultTimeout, maxControlPayload)
		if err != nil {
			return SessionSummary{}, fmt.Errorf("dist: session close: %w", err)
		}
		switch typ {
		case frameAck:
			// In-flight batches acked after our close went out; keep
			// draining until the summary arrives.
			fp.release()
		case frameClosed:
			sum, err := decodeSummary(fp.b)
			fp.release()
			return sum, err
		case frameFail:
			msg := decodeFail(fp.b)
			fp.release()
			return SessionSummary{}, fmt.Errorf("dist: session failed: %s", msg)
		default:
			fp.release()
			return SessionSummary{}, fmt.Errorf("dist: unexpected %s frame, want closed", frameName(typ))
		}
	}
}
