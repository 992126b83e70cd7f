package server

import (
	"errors"
	"fmt"
	"io"
	"net"

	"flowzip/internal/core"
	"flowzip/internal/dist"
	"flowzip/internal/pkt"
)

// ErrSessionDrained reports that the daemon finalized the session early —
// graceful shutdown flushed everything acked so far into archives. The
// client's Close still returns the summary; only unacked packets were lost.
var ErrSessionDrained = errors.New("server: session drained by daemon shutdown")

// Client is one capture stream into a flowzipd daemon: dial, Send batches,
// then Close for the session summary.
//
// The data plane is pipelined: Send keeps up to the session's credit window
// of batches in flight and only blocks reading acks when the window is
// exhausted, so sustained throughput is bounded by link bandwidth and the
// daemon's compression speed instead of one round trip per batch. The
// daemon's acks are cumulative and are its durability promise: on a
// disconnect or daemon drain, every acked batch is flushed into archives and
// only unacked batches are lost.
type Client struct {
	sc      *dist.SessionConn
	window  int64
	sent    int64 // batches pushed
	acked   int64 // highest cumulative batch seq acked
	ackedP  int64 // cumulative packets acked
	drained *dist.SessionSummary
}

// DialSession connects to a daemon and opens a session under tenant. nc is
// validated before anything is dialed (dist.NetConfig.Validate); the daemon
// validates opts and applies its quotas, and a rejection surfaces here. The
// effective credit window is the smaller of nc.Window (0 = the default) and
// the window the daemon advertises in its openok.
func DialSession(addr, tenant string, opts core.Options, nc dist.NetConfig) (*Client, error) {
	if err := nc.Validate(); err != nil {
		return nil, err
	}
	nc = nc.WithDefaults()
	conn, err := net.DialTimeout("tcp", addr, nc.FrameTimeout)
	if err != nil {
		return nil, fmt.Errorf("server: dial daemon %s: %w", addr, err)
	}
	sc := dist.NewSessionConn(conn, nc)
	_, granted, err := sc.Open(tenant, opts)
	if err != nil {
		sc.Close()
		return nil, err
	}
	return &Client{sc: sc, window: int64(min(nc.Window, granted))}, nil
}

// Window returns the effective credit window: the most batches this client
// keeps in flight before blocking on acks.
func (c *Client) Window() int { return int(c.window) }

// Send pushes one packet batch into the session's credit window. It blocks
// only when the window is full (waiting for the daemon's cumulative acks to
// free credits). The batch is fully serialized before Send returns, so the
// caller may reuse the slice immediately. It returns ErrSessionDrained when
// the daemon finalized the session mid-stream; the caller should stop
// sending and Close.
func (c *Client) Send(batch []pkt.Packet) error {
	if c.drained != nil {
		return ErrSessionDrained
	}
	if len(batch) == 0 {
		return nil
	}
	if err := c.sc.PushAsync(batch); err != nil {
		return err
	}
	c.sent++
	for c.sent-c.acked >= c.window {
		if err := c.readAck(); err != nil {
			return err
		}
	}
	return nil
}

// readAck consumes one daemon answer and advances the cumulative watermarks.
func (c *Client) readAck() error {
	seq, packets, drained, err := c.sc.ReadAck()
	if err != nil {
		return err
	}
	if drained != nil {
		c.drained = drained
		if packets > c.ackedP {
			c.ackedP = packets
		}
		return ErrSessionDrained
	}
	if seq > c.acked {
		c.acked = seq
	}
	if packets > c.ackedP {
		c.ackedP = packets
	}
	return nil
}

// Close finishes the session and returns the daemon's summary, draining any
// acks still in flight on the way (the closed frame is cumulative over
// them). After a drain notice the stored summary is returned without
// another exchange.
func (c *Client) Close() (dist.SessionSummary, error) {
	defer c.sc.Close()
	if c.drained != nil {
		return *c.drained, nil
	}
	sum, err := c.sc.Finish()
	if err == nil {
		c.acked = c.sent
		if sum.Packets > c.ackedP {
			c.ackedP = sum.Packets
		}
	}
	return sum, err
}

// Abort drops the connection without the closing exchange — the daemon's
// disconnect path flushes what was acked; in-flight unacked batches are
// lost.
func (c *Client) Abort() error { return c.sc.Close() }

// Ingest streams every batch of src into a daemon session under tenant and
// returns the daemon's summary. When the daemon drains mid-stream the
// summary of what was flushed is returned along with ErrSessionDrained.
func Ingest(addr, tenant string, src core.PacketSource, opts core.Options, nc dist.NetConfig) (dist.SessionSummary, error) {
	c, err := DialSession(addr, tenant, opts, nc)
	if err != nil {
		return dist.SessionSummary{}, err
	}
	for {
		batch, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			c.Abort()
			return dist.SessionSummary{}, fmt.Errorf("server: ingest source: %w", err)
		}
		if err := c.Send(batch); err != nil {
			if errors.Is(err, ErrSessionDrained) {
				sum, _ := c.Close()
				return sum, ErrSessionDrained
			}
			c.Abort()
			return dist.SessionSummary{}, err
		}
	}
	return c.Close()
}
