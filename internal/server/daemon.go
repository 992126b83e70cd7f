package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"flowzip/internal/core"
	"flowzip/internal/dist"
	"flowzip/internal/obs"
	"flowzip/internal/pkt"
)

// Quotas bounds what the daemon's tenants may consume. Zero fields are
// unlimited (resident packets fall back to the pipeline default).
type Quotas struct {
	// MaxSessions caps concurrently open sessions across all tenants; an
	// open beyond it is rejected with a fail frame.
	MaxSessions int
	// MaxResident bounds the packets resident inside each session's
	// compression pipeline (core.PipelineConfig.MaxResident): the knob that
	// turns a fast client into a stalled ack stream instead of unbounded
	// daemon memory. 0 = core.DefaultMaxResident.
	MaxResident int
	// MaxArchiveBytes caps the encoded archive bytes one tenant may
	// accumulate across the daemon's lifetime; a segment that would exceed
	// it fails the session before the segment is written.
	MaxArchiveBytes int64
}

// Rotation cuts a session's packet stream into archive segments. Zero fields
// disable that boundary; with both zero a session produces exactly one
// archive, written when it ends.
type Rotation struct {
	// MaxPackets starts a new segment after this many packets, splitting
	// mid-batch when needed, so segment boundaries are exact.
	MaxPackets int64
	// MaxAge starts a new segment when the current one has been open this
	// long. The boundary is checked as batches arrive — an idle session
	// rotates on its next batch, not on a timer.
	MaxAge time.Duration
}

// Config parameterizes a Daemon.
type Config struct {
	// ListenAddr is the TCP address to accept capture sessions on, e.g.
	// ":9100". Empty means "127.0.0.1:0" (ephemeral loopback, for tests).
	ListenAddr string
	// MetricsAddr, when non-empty, serves the Prometheus text endpoint
	// /metrics on this address.
	MetricsAddr string
	// Debug additionally mounts net/http/pprof and expvar under /debug on
	// the metrics listener, for live profiling of a loaded daemon. It has
	// no effect when MetricsAddr is empty.
	Debug bool
	// Dir is the archive root: each tenant's segments land in Dir/<tenant>/
	// as flowzip archives plus .fzmeta sidecars. Segments are written
	// indexed, so `flowzip extract` serves 5-tuple-prefix and time-window
	// queries on them without full decodes. Required.
	Dir string
	// Workers is the per-session pipeline shard count, in
	// [0, flow.MaxShards]; 0 = one per CPU, 1 = the serial compressor in the
	// session's own goroutine (Quotas.MaxResident then has nothing to act
	// on). Sessions run concurrently, so a loaded daemon usually wants a
	// small count here.
	Workers int
	// Net supplies the connection knobs (see dist.NetConfig): the same
	// struct a capture client dials with.
	Net dist.NetConfig
	// Quotas bounds tenant consumption; Rotation cuts session streams into
	// archive segments.
	Quotas   Quotas
	Rotation Rotation
	// Logger, when non-nil, receives structured progress records with
	// consistent keys (tenant, session, seq, archive); nil turns logging
	// off.
	Logger *slog.Logger
	// Trace, when non-nil, records per-session spans (one trace thread per
	// session id): the session lifetime and every segment write. The
	// caller owns writing the trace out (obs.Tracer.WriteFile).
	Trace *obs.Tracer
}

func (c *Config) validate() error {
	if c.Dir == "" {
		return errors.New("server: daemon needs an archive directory (Dir)")
	}
	if err := c.Net.Validate(); err != nil {
		return err
	}
	if c.Quotas.MaxSessions < 0 {
		return fmt.Errorf("server: max sessions %d must be >= 0", c.Quotas.MaxSessions)
	}
	if c.Quotas.MaxArchiveBytes < 0 {
		return fmt.Errorf("server: max archive bytes %d must be >= 0", c.Quotas.MaxArchiveBytes)
	}
	if c.Rotation.MaxPackets < 0 {
		return fmt.Errorf("server: rotation packets %d must be >= 0", c.Rotation.MaxPackets)
	}
	if c.Rotation.MaxAge < 0 {
		return fmt.Errorf("server: rotation age %v must be >= 0", c.Rotation.MaxAge)
	}
	// Workers and MaxResident share the pipeline's validation; surface the
	// error at daemon construction, not at first session.
	_, err := core.NewPipeline(core.DefaultOptions(), core.PipelineConfig{
		Workers: c.Workers, MaxResident: c.Quotas.MaxResident,
	})
	return err
}

// Daemon is the long-lived multi-tenant ingestion service: it accepts many
// concurrent capture sessions over the framed TCP protocol, runs one
// compression pipeline per session, and writes each tenant's archives under
// its own directory. Archives are byte-for-byte identical to a serial
// Compress over the same packets — the daemon adds scheduling, rotation and
// quotas, never different bytes.
type Daemon struct {
	cfg     Config
	log     *slog.Logger
	tracer  *obs.Tracer
	metrics *Metrics
	srv     *dist.Server

	maddr net.Addr
	mstop func()

	drain     chan struct{}
	drainOnce sync.Once

	mu          sync.Mutex
	sessions    int
	nextID      uint64
	tenantBytes map[string]int64
}

// New validates cfg, creates the archive root, binds the listeners and starts
// accepting sessions. The caller must end with Shutdown or Close.
func New(cfg Config) (*Daemon, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: archive root: %w", err)
	}
	d := &Daemon{
		cfg:         cfg,
		log:         cfg.Logger,
		tracer:      cfg.Trace,
		metrics:     newMetrics(),
		drain:       make(chan struct{}),
		tenantBytes: make(map[string]int64),
	}
	if cfg.MetricsAddr != "" {
		maddr, mstop, err := obs.Serve(cfg.MetricsAddr, d.metrics.reg, cfg.Debug)
		if err != nil {
			return nil, err
		}
		d.maddr, d.mstop = maddr, mstop
	}
	srv, err := dist.Serve(cfg.ListenAddr, d.handle)
	if err != nil {
		if d.mstop != nil {
			d.mstop()
		}
		return nil, err
	}
	d.srv = srv
	return d, nil
}

// Addr returns the session listener address clients should dial.
func (d *Daemon) Addr() net.Addr { return d.srv.Addr() }

// MetricsAddr returns the metrics endpoint address, or nil when disabled.
func (d *Daemon) MetricsAddr() net.Addr { return d.maddr }

// Metrics exposes the daemon's counters — the same values /metrics renders.
func (d *Daemon) Metrics() *Metrics { return d.metrics }

// ActiveSessions reports the sessions currently open.
func (d *Daemon) ActiveSessions() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sessions
}

// Shutdown drains the daemon gracefully: the listener closes, every open
// session is finalized early — its pending packets compressed, its archive
// segments flushed, its client told with a Drained summary — and the metrics
// endpoint stops. When ctx expires first, the remaining connections are
// closed forcibly and ctx's error is returned; either way, no daemon
// goroutine is left running when Shutdown returns.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.drainOnce.Do(func() { close(d.drain) })
	done := make(chan struct{})
	go func() {
		d.srv.Shutdown(false)
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		d.srv.Shutdown(true)
		<-done
		err = ctx.Err()
	}
	if d.mstop != nil {
		d.mstop()
	}
	return err
}

// Close tears the daemon down immediately: open connections are closed, but
// each session's already-queued packets are still compressed and flushed
// (the pipeline finalizes when its feed closes).
func (d *Daemon) Close() error {
	d.drainOnce.Do(func() { close(d.drain) })
	d.srv.Shutdown(true)
	if d.mstop != nil {
		d.mstop()
	}
	return nil
}

// handle serves one capture connection end to end. It runs on the dist.Server
// handler goroutine; the Server closes the conn when it returns.
func (d *Daemon) handle(conn net.Conn) {
	sc := dist.NewSessionConn(conn, d.cfg.Net)
	tenant, opts, err := sc.Accept()
	if err != nil {
		d.metrics.SessionsRejected.Add(1)
		d.log.Warn("server: session rejected", "remote", conn.RemoteAddr().String(), "err", err)
		return
	}
	s, err := d.admit(tenant, opts)
	if err != nil {
		d.metrics.SessionsRejected.Add(1)
		d.log.Warn("server: session rejected", "remote", conn.RemoteAddr().String(), "tenant", tenant, "err", err)
		_ = sc.SendFail(err.Error())
		return
	}
	defer d.release(s)
	if err := sc.SendOpenOK(s.id, s.window); err != nil {
		s.endReason = ReasonDisconnect
		close(s.batches)
		<-s.done
		return
	}
	d.log.Info("server: session open", "session", s.id, "tenant", tenant, "remote", conn.RemoteAddr().String())
	d.serveSession(sc, s)
}

// admit applies the admission checks and registers a new session, starting
// its pipeline goroutine. The returned session must be released.
func (d *Daemon) admit(tenant string, opts core.Options) (*session, error) {
	select {
	case <-d.drain:
		return nil, errors.New("server: daemon is draining")
	default:
	}
	pipe, err := core.NewPipeline(opts, core.PipelineConfig{
		Workers:     d.cfg.Workers,
		MaxResident: d.cfg.Quotas.MaxResident,
		Index:       core.IndexConfig{Enabled: true},
		Metrics:     d.metrics.Pipeline,
	})
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	if q := d.cfg.Quotas.MaxSessions; q > 0 && d.sessions >= q {
		d.mu.Unlock()
		return nil, fmt.Errorf("server: session quota %d reached", q)
	}
	if q := d.cfg.Quotas.MaxArchiveBytes; q > 0 && d.tenantBytes[tenant] >= q {
		d.mu.Unlock()
		return nil, fmt.Errorf("server: tenant %s archive byte quota %d exhausted", tenant, q)
	}
	d.sessions++
	d.nextID++
	id := d.nextID
	d.mu.Unlock()

	if err := os.MkdirAll(filepath.Join(d.cfg.Dir, tenant), 0o755); err != nil {
		d.mu.Lock()
		d.sessions--
		d.mu.Unlock()
		return nil, fmt.Errorf("server: tenant directory: %w", err)
	}

	// The batch channel is buffered to the credit window: the daemon can
	// accept (and ack) up to window batches ahead of the pipeline, which is
	// exactly the pipelining the client was granted in openok. A full buffer
	// stalls the ack stream, which stalls the client once its window is
	// spent — backpressure end to end, never unbounded memory.
	window := d.window()
	batches := make(chan []pkt.Packet, window)
	s := &session{
		id:      id,
		tenant:  tenant,
		window:  window,
		pipe:    pipe,
		batches: batches,
		src: &segmentSource{
			in:         batches,
			maxPackets: d.cfg.Rotation.MaxPackets,
			maxAge:     d.cfg.Rotation.MaxAge,
			inflight:   d.metrics.InflightBatches,
		},
		done:   make(chan struct{}),
		failed: make(chan struct{}),
	}
	d.metrics.SessionsStarted.Add(1)
	d.metrics.SessionsActive.Add(1)
	go d.runSession(s)
	return s, nil
}

// window resolves the credit window the daemon advertises to each session.
func (d *Daemon) window() int {
	w := d.cfg.Net.Window
	if w <= 0 {
		w = dist.DefaultWindow
	}
	if w > dist.MaxWindow {
		w = dist.MaxWindow
	}
	return w
}

// release deregisters a finished session, once: serveSession frees the slot
// as soon as the pipeline is done, handle's deferred call covers the paths
// that never get there.
func (d *Daemon) release(s *session) {
	d.mu.Lock()
	first := !s.released
	s.released = true
	if first {
		d.sessions--
	}
	d.mu.Unlock()
	if first {
		d.metrics.SessionsActive.Add(-1)
	}
}

// frameEvent is one reader-goroutine observation: a batch (a pooled slab the
// receiver must account for), a clean close, or the connection dying. recv
// stamps when the frame came off the wire, for the ack-latency histogram.
type frameEvent struct {
	batch []pkt.Packet
	recv  time.Time
	close bool
	err   error
}

// serveSession runs the accept loop of one admitted session: a reader
// goroutine turns connection frames into events, the loop feeds batches into
// the session pipeline and acks cumulatively only after the enqueue — the
// channel buffer is the daemon half of the credit window, so a backpressured
// pipeline stalls the ack stream and, once the client's window is spent, the
// client itself. Every pooled batch slab is either enqueued (the pipeline
// side releases it) or released here.
func (d *Daemon) serveSession(sc *dist.SessionConn, s *session) {
	frames := make(chan frameEvent)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			ev, err := sc.Next()
			fe := frameEvent{batch: ev.Batch, recv: time.Now(), close: ev.Close, err: err}
			select {
			case frames <- fe:
			case <-stop:
				return
			}
			if err != nil || ev.Close {
				return
			}
		}
	}()

	var seq, total int64
	end := ReasonDisconnect
loop:
	for {
		select {
		case fe := <-frames:
			switch {
			case fe.err != nil:
				end = ReasonDisconnect
				break loop
			case fe.close:
				end = ReasonClose
				break loop
			case len(fe.batch) == 0:
				dist.ReleaseBatch(fe.batch)
				continue
			}
			feed := time.Now()
			select {
			case s.batches <- fe.batch:
			case <-s.failed:
				dist.ReleaseBatch(fe.batch)
				end = reasonError
				break loop
			}
			seq++
			total += int64(len(fe.batch))
			d.metrics.Batches.Add(1)
			d.metrics.Packets.Add(int64(len(fe.batch)))
			d.metrics.BatchSeconds.Observe(time.Since(feed).Seconds())
			d.metrics.InflightBatches.Add(1)
			if err := sc.SendAck(seq, total); err != nil {
				end = ReasonDisconnect
				break loop
			}
			d.metrics.AckSeconds.Observe(time.Since(fe.recv).Seconds())
		case <-s.failed:
			end = reasonError
			break loop
		case <-d.drain:
			end = ReasonDrain
			break loop
		}
	}

	s.endReason = end
	close(s.batches)
	<-s.done
	// The slot is free before the client can learn the session is over: a
	// client that reads the closing summary and dials again at once must not
	// be refused for its own finished session.
	d.release(s)

	switch {
	case s.pipeErr != nil:
		d.metrics.SessionsFailed.Add(1)
		d.log.Warn("server: session failed", "session", s.id, "tenant", s.tenant, "err", s.pipeErr)
		_ = sc.SendFail(s.pipeErr.Error())
	case end == ReasonClose:
		d.metrics.SessionsCompleted.Add(1)
		d.log.Info("server: session closed", "session", s.id, "tenant", s.tenant,
			"packets", s.summary.Packets, "archives", s.summary.Archives, "bytes", s.summary.ArchiveBytes)
		_ = sc.SendClosed(s.summary)
	case end == ReasonDrain:
		d.metrics.SessionsDrained.Add(1)
		sum := s.summary
		sum.Drained = true
		d.log.Info("server: session drained", "session", s.id, "tenant", s.tenant, "packets", sum.Packets)
		if sc.SendClosed(sum) == nil {
			// Linger until the client acknowledges the drain by hanging up
			// (or sending close): returning immediately would close the conn
			// with the client's in-flight frames unread, which can reset the
			// connection before the drain notice is delivered.
			grace := d.cfg.Net.FrameTimeout
			if grace <= 0 {
				grace = dist.DefaultFrameTimeout
			}
			timer := time.NewTimer(grace)
			defer timer.Stop()
		linger:
			for {
				select {
				case fe := <-frames:
					dist.ReleaseBatch(fe.batch)
					if fe.err != nil || fe.close {
						break linger
					}
				case <-timer.C:
					break linger
				}
			}
		}
	default: // client went away mid-stream; segments up to here are flushed
		d.metrics.SessionsFailed.Add(1)
		d.log.Warn("server: session disconnected", "session", s.id, "tenant", s.tenant, "packets", total)
	}
}
