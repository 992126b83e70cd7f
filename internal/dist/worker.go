package dist

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"syscall"

	"flowzip/internal/core"
	"flowzip/internal/obs"
)

// WorkerConfig parameterizes a compression worker.
type WorkerConfig struct {
	// Source returns a fresh packet stream for each assignment. Every
	// worker must stream the same packets in the same order — typically the
	// same capture file replicated to (or mounted on) each machine.
	Source func() (core.PacketSource, error)
	// NetConfig supplies the shared connection knobs: FrameTimeout bounds
	// one control-frame read/write and ResultTimeout bounds the wait for
	// the next assignment — while other workers compress, an idle worker
	// may legitimately wait a while for a re-queued shard. Retries is
	// unused by workers (the coordinator owns re-queueing).
	NetConfig
	// Logf, when non-nil, receives progress lines. Superseded by Logger
	// when both are set.
	Logf func(format string, args ...any)
	// Logger, when non-nil, receives structured progress records. Takes
	// precedence over Logf; when both are nil, logging is off.
	Logger *slog.Logger
}

func (c *WorkerConfig) fillDefaults() error {
	if c.Source == nil {
		return errors.New("dist: worker needs a Source")
	}
	if err := c.NetConfig.Validate(); err != nil {
		return err
	}
	c.NetConfig.fillDefaults()
	if c.Logger == nil {
		c.Logger = obs.LogfLogger(c.Logf) // nil Logf -> nop logger
	}
	return nil
}

// Worker is one registered compression worker: it pulls partition
// assignments from a coordinator, compresses them from its own
// PacketSource and pushes the serialized shard state back.
type Worker struct {
	conn      net.Conn
	br        *bufio.Reader
	cfg       WorkerConfig
	exchanges int // completed assignments, for the clean-shutdown heuristic
}

// Dial connects to a coordinator and registers. The returned Worker is
// ready to Run.
func Dial(addr string, cfg WorkerConfig) (*Worker, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	conn, err := net.DialTimeout("tcp", addr, cfg.FrameTimeout)
	if err != nil {
		return nil, fmt.Errorf("dist: dial coordinator %s: %w", addr, err)
	}
	if err := writeFrame(conn, cfg.FrameTimeout, frameHello, encodeHello()); err != nil {
		conn.Close()
		return nil, err
	}
	return &Worker{conn: conn, br: bufio.NewReader(conn), cfg: cfg}, nil
}

// Close releases the connection. Run closes it on return; Close exists for
// abandoning a worker that was dialed but never run.
func (w *Worker) Close() error { return w.conn.Close() }

// Run serves assignments until the coordinator says done. A source or
// compression failure is reported to the coordinator (which re-queues the
// shard elsewhere) and ends the run with the error; a coordinator that goes
// away after at least one completed exchange ends the run cleanly, because
// a finished run's coordinator may hang up without a trailing done frame.
func (w *Worker) Run() error {
	defer w.conn.Close()
	for {
		typ, fp, err := readFrame(w.conn, w.br, w.cfg.ResultTimeout, maxControlPayload)
		if err != nil {
			if w.exchanges > 0 && isDisconnect(err) {
				w.cfg.Logger.Info("dist: coordinator hung up; assuming run complete", "shards", w.exchanges)
				return nil
			}
			return fmt.Errorf("dist: waiting for assignment: %w", err)
		}
		switch typ {
		case frameDone:
			fp.release()
			w.cfg.Logger.Info("dist: coordinator done", "shards", w.exchanges)
			return nil
		case frameFail:
			// The coordinator rejected our last result or aborted the run,
			// and is about to hang up; the message carries the context.
			_, msg, _ := decodeFail(fp.b)
			fp.release()
			return fmt.Errorf("dist: coordinator: %s", msg)
		case frameAssign:
			a, err := decodeAssignment(fp.b)
			fp.release()
			if err != nil {
				return err
			}
			if err := w.compress(a); err != nil {
				// Tell the coordinator so the shard is re-queued promptly,
				// then surface the failure locally.
				_ = writeFrame(w.conn, w.cfg.FrameTimeout, frameFail, encodeFail(a.index, err.Error()))
				return err
			}
			w.exchanges++
		default:
			fp.release()
			return fmt.Errorf("dist: unexpected %s frame from coordinator", frameName(typ))
		}
	}
}

// compress runs one assignment end to end.
func (w *Worker) compress(a assignment) error {
	w.cfg.Logger.Info("dist: compressing shard", "shard", a.index, "shards", a.count)
	src, err := w.cfg.Source()
	if err != nil {
		return fmt.Errorf("dist: shard %d source: %w", a.index, err)
	}
	defer closeSource(src)
	r, err := core.CompressShardSource(src, a.opts, a.index, a.count)
	if err != nil {
		return err
	}
	var blob bytes.Buffer
	if err := EncodeShardState(&blob, r); err != nil {
		return err
	}
	// The blob can be large and the coordinator may be busy with other
	// workers; give the push the assignment budget, not the control-frame
	// one.
	return writeFrame(w.conn, w.cfg.ResultTimeout, frameResult, blob.Bytes())
}

// closeSource closes sources that need it (pcap files); in-memory sources
// don't implement Closer.
func closeSource(src core.PacketSource) {
	if c, ok := src.(io.Closer); ok {
		c.Close()
	}
}

// isDisconnect reports whether err looks like the peer going away (EOF,
// closed or reset connection) rather than a timeout or protocol violation.
// An assignment-wait timeout must NOT count: the coordinator may simply be
// busy feeding other workers, and exiting zero on it would silently shrink
// the fleet mid-run.
func isDisconnect(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || isConnReset(err)
}

func isConnReset(err error) bool {
	var ne *net.OpError
	if !errors.As(err, &ne) || ne.Timeout() {
		return false
	}
	return errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}
