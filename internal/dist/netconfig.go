package dist

import (
	"fmt"
	"time"
)

// Default protocol timing. Frame IO (small control messages) is quick;
// waiting for the slow half of an exchange — a capture client accumulating
// its next batch, a daemon flushing a session — is not, so that wait gets
// its own, much longer budget.
const (
	// DefaultFrameTimeout bounds one control-frame read or write.
	DefaultFrameTimeout = 30 * time.Second
	// DefaultResultTimeout bounds the slow half of a session exchange: the
	// daemon's wait for a session's next packet batch, and the client's wait
	// for an ack or the closing summary.
	DefaultResultTimeout = 15 * time.Minute
	// DefaultWindow is the ingestion credit window: how many packet batches
	// a capture client may keep in flight (sent but unacked) per session.
	// 32 batches hides tens of milliseconds of round-trip latency at
	// typical batch sizes without letting a client run far ahead of the
	// daemon's acks.
	DefaultWindow = 32
	// MaxWindow bounds the credit window: each in-flight batch is buffered
	// daemon-side until the session pipeline draws it in, so the window is
	// also a memory bound per session.
	MaxWindow = 1024
)

// NetConfig is the connection configuration both ends of a session share:
// the ingestion daemon's listener and its capture clients consume the same
// three knobs. The zero value selects the defaults above.
type NetConfig struct {
	// FrameTimeout bounds each control-frame read/write on a connection
	// (0 = DefaultFrameTimeout).
	FrameTimeout time.Duration
	// ResultTimeout bounds the wait for the slow half of an exchange: the
	// next packet batch of an idle session (daemon), an ack or the closing
	// summary (client). 0 = DefaultResultTimeout.
	ResultTimeout time.Duration
	// Window is the ingestion credit window, in batches: the daemon
	// advertises its value in openok and buffers up to that many accepted
	// batches per session; a capture client keeps up to the minimum of its
	// own Window and the daemon's advertisement in flight before blocking
	// on acks. 1 degenerates to stop-and-wait (one ack round trip per
	// batch); 0 = DefaultWindow.
	Window int
}

// WithDefaults returns c with its zero (or negative) fields resolved to the
// package defaults: the one place they are worked out. It clamps nothing;
// Validate, which both session ends run on what they are given, refuses what
// is out of range.
func (c NetConfig) WithDefaults() NetConfig {
	if c.FrameTimeout <= 0 {
		c.FrameTimeout = DefaultFrameTimeout
	}
	if c.ResultTimeout <= 0 {
		c.ResultTimeout = DefaultResultTimeout
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	return c
}

// Validate rejects negative knobs and a window above MaxWindow. Zero values
// are legal everywhere — they select the documented defaults — so only
// configurations that could never have been intended fail.
func (c NetConfig) Validate() error {
	if c.FrameTimeout < 0 {
		return fmt.Errorf("dist: frame timeout %v must be >= 0", c.FrameTimeout)
	}
	if c.ResultTimeout < 0 {
		return fmt.Errorf("dist: result timeout %v must be >= 0", c.ResultTimeout)
	}
	if c.Window < 0 {
		return fmt.Errorf("dist: window %d must be >= 0", c.Window)
	}
	if c.Window > MaxWindow {
		return fmt.Errorf("dist: window %d exceeds the %d-batch bound", c.Window, MaxWindow)
	}
	return nil
}
