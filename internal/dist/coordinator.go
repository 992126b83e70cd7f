package dist

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"sync"
	"time"

	"flowzip/internal/core"
	"flowzip/internal/flow"
	"flowzip/internal/obs"
)

// DefaultShardRetries is the historical name of the shard failure budget;
// the knob now lives in NetConfig.Retries, shared with every other framed
// endpoint.
const DefaultShardRetries = DefaultRetries

// CoordinatorConfig parameterizes a merge coordinator.
type CoordinatorConfig struct {
	// Shards is the partition count workers will be assigned, in
	// [1, flow.MaxShards].
	Shards int
	// Opts are the codec options every worker must compress with; they are
	// pushed to workers in the assignment, so the coordinator is the single
	// source of truth.
	Opts core.Options
	// ListenAddr is the TCP address to accept workers on, e.g. ":9000".
	// Empty means "127.0.0.1:0" (an ephemeral loopback port, for tests and
	// single-machine runs).
	ListenAddr string
	// NetConfig supplies the shared connection knobs: FrameTimeout bounds
	// each control-frame read/write, ResultTimeout bounds the wait for one
	// assigned shard's result (a worker that exceeds it is dropped and its
	// shard re-queued), and Retries caps the total failures a single shard
	// may accumulate before Wait gives up — each failure but the last
	// re-queues the shard, so Retries=1 aborts on the first failure.
	NetConfig
	// Logf, when non-nil, receives progress lines (registrations,
	// assignments, failures). Superseded by Logger when both are set.
	Logf func(format string, args ...any)
	// Logger, when non-nil, receives structured progress records with
	// consistent keys (worker, shard, err). Takes precedence over Logf;
	// when both are nil, logging is off.
	Logger *slog.Logger
	// MetricsAddr, when non-empty, serves the coordinator's metrics
	// registry (assignments, requeues, shard latency, runtime signals) in
	// Prometheus text format on http://<MetricsAddr>/metrics for the life
	// of the run.
	MetricsAddr string
	// Debug additionally mounts net/http/pprof and /debug/vars on the
	// metrics server.
	Debug bool
}

func (c *CoordinatorConfig) fillDefaults() {
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	c.NetConfig.fillDefaults()
	if c.Logger == nil {
		c.Logger = obs.LogfLogger(c.Logf) // nil Logf -> nop logger
	}
}

// coordMetrics is the coordinator's registry-backed counter set.
type coordMetrics struct {
	workers      *obs.Counter
	assignments  *obs.Counter
	results      *obs.Counter
	requeues     *obs.Counter
	pending      *obs.Gauge
	shardSeconds *obs.Histogram
}

func newCoordMetrics(reg *obs.Registry) *coordMetrics {
	return &coordMetrics{
		workers:      reg.Counter("dist_workers_registered_total", "Workers that completed the hello handshake."),
		assignments:  reg.Counter("dist_assignments_total", "Shard assignments handed to workers (including re-assignments)."),
		results:      reg.Counter("dist_results_total", "Shard results accepted."),
		requeues:     reg.Counter("dist_requeues_total", "Shard failures that re-queued the shard for another worker."),
		pending:      reg.Gauge("dist_pending_shards", "Shards awaiting assignment."),
		shardSeconds: reg.Histogram("dist_shard_seconds", "Latency from shard assignment to result acceptance.", obs.DefaultLatencyBuckets),
	}
}

// Coordinator accepts workers over TCP, hands out partition assignments,
// collects serialized shard state and runs the deterministic merge once the
// set is complete. A worker that disconnects, times out or reports failure
// has its shard re-queued for the surviving workers, up to ShardRetries
// failures per shard.
type Coordinator struct {
	cfg CoordinatorConfig
	srv *Server
	log *slog.Logger

	reg     *obs.Registry
	metrics *coordMetrics
	maddr   net.Addr
	mstop   func()

	mu       sync.Mutex
	cond     *sync.Cond
	pending  []int // shard indices awaiting assignment
	failures map[int]int
	results  map[int]*core.ShardResult
	closed   bool
	fatalErr error
}

// NewCoordinator validates cfg, binds the listener and starts accepting
// workers. The caller must end with Wait or Close.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Shards < 1 || cfg.Shards > flow.MaxShards {
		return nil, fmt.Errorf("dist: coordinator shards %d outside [1,%d]", cfg.Shards, flow.MaxShards)
	}
	if err := cfg.Opts.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.NetConfig.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	c := &Coordinator{
		cfg:      cfg,
		log:      cfg.Logger,
		reg:      obs.NewRegistry(),
		failures: make(map[int]int),
		results:  make(map[int]*core.ShardResult),
	}
	c.metrics = newCoordMetrics(c.reg)
	c.cond = sync.NewCond(&c.mu)
	for i := 0; i < cfg.Shards; i++ {
		c.pending = append(c.pending, i)
	}
	c.metrics.pending.Set(int64(cfg.Shards))
	if cfg.MetricsAddr != "" {
		obs.RegisterRuntimeMetrics(c.reg)
		addr, stop, err := obs.Serve(cfg.MetricsAddr, c.reg, cfg.Debug)
		if err != nil {
			return nil, err
		}
		c.maddr, c.mstop = addr, stop
	}
	srv, err := Serve(cfg.ListenAddr, c.serveWorker)
	if err != nil {
		if c.mstop != nil {
			c.mstop()
		}
		return nil, fmt.Errorf("dist: coordinator listen: %w", err)
	}
	c.srv = srv
	return c, nil
}

// MetricsAddr returns the bound metrics listener address, or nil when
// metrics serving is off — useful when MetricsAddr requested an
// ephemeral port.
func (c *Coordinator) MetricsAddr() net.Addr { return c.maddr }

// Registry returns the coordinator's metrics registry (always non-nil),
// so embedders can render or extend it without the HTTP server.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// Addr returns the listener address workers should Dial — useful when
// ListenAddr requested an ephemeral port.
func (c *Coordinator) Addr() net.Addr { return c.srv.Addr() }

// done reports (under mu) whether every shard has a result.
func (c *Coordinator) doneLocked() bool { return len(c.results) == c.cfg.Shards }

// takeShard blocks until a shard is available for assignment, the run
// completes, or the coordinator shuts down. It returns (shard, true) to
// assign, (0, false) to hang up (done/closed/failed).
func (c *Coordinator) takeShard() (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed || c.fatalErr != nil || c.doneLocked() {
			return 0, false
		}
		if len(c.pending) > 0 {
			shard := c.pending[0]
			c.pending = c.pending[1:]
			c.metrics.pending.Set(int64(len(c.pending)))
			return shard, true
		}
		// Nothing pending, but other workers still hold assignments that
		// may yet fail and re-queue; wait instead of sending done early.
		c.cond.Wait()
	}
}

// requeue returns a failed shard to the queue, or aborts the run when the
// shard has exhausted its retries.
func (c *Coordinator) requeue(shard int, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.results[shard]; ok {
		return // completed concurrently; nothing to do
	}
	c.failures[shard]++
	if c.failures[shard] >= c.cfg.Retries {
		if c.fatalErr == nil {
			c.fatalErr = fmt.Errorf("dist: shard %d failed %d times, giving up: %w",
				shard, c.failures[shard], cause)
		}
	} else {
		c.pending = append(c.pending, shard)
		c.metrics.requeues.Inc()
		c.metrics.pending.Set(int64(len(c.pending)))
	}
	c.cond.Broadcast()
}

// serveWorker runs the assignment loop for one connection.
func (c *Coordinator) serveWorker(conn net.Conn) {
	wlog := c.log.With("worker", conn.RemoteAddr().String())
	br := bufio.NewReader(conn)
	typ, fp, err := readFrame(conn, br, c.cfg.FrameTimeout, maxControlPayload)
	if err != nil || typ != frameHello {
		fp.release()
		wlog.Warn("dist: worker rejected: bad hello", "err", err)
		return
	}
	err = checkHello(fp.b)
	fp.release()
	if err != nil {
		wlog.Warn("dist: worker rejected: bad hello", "err", err)
		return
	}
	wlog.Info("dist: worker registered")
	c.metrics.workers.Inc()

	for {
		shard, ok := c.takeShard()
		if !ok {
			// No more work: report success as done, but an abort as a fail
			// frame — a worker fleet must not log "coordinator done" and
			// exit zero when the run died.
			c.mu.Lock()
			abort := c.fatalErr
			if abort == nil && !c.doneLocked() {
				abort = errors.New("coordinator closed before the run completed")
			}
			c.mu.Unlock()
			if abort != nil {
				_ = writeFrame(conn, c.cfg.FrameTimeout, frameFail, encodeFail(0, "run aborted: "+abort.Error()))
			} else {
				_ = writeFrame(conn, c.cfg.FrameTimeout, frameDone, nil)
			}
			return
		}
		wlog.Info("dist: shard assigned", "shard", shard, "shards", c.cfg.Shards)
		c.metrics.assignments.Inc()
		assigned := time.Now()
		a := assignment{index: shard, count: c.cfg.Shards, opts: c.cfg.Opts}
		if err := writeFrame(conn, c.cfg.FrameTimeout, frameAssign, encodeAssignment(a)); err != nil {
			wlog.Warn("dist: worker dropped; re-queueing shard", "shard", shard, "err", err)
			c.requeue(shard, err)
			return
		}
		typ, fp, err := readFrame(conn, br, c.cfg.ResultTimeout, maxFramePayload)
		if err != nil {
			wlog.Warn("dist: worker dropped; re-queueing shard", "shard", shard, "err", err)
			c.requeue(shard, err)
			return
		}
		switch typ {
		case frameResult:
			r, err := c.acceptResult(shard, fp.b)
			fp.release()
			if err != nil {
				wlog.Warn("dist: bad shard result", "shard", shard, "err", err)
				// Tell the worker why before dropping it, so a
				// misconfigured worker exits with the rejection instead of
				// mistaking the hang-up for a completed run.
				_ = writeFrame(conn, c.cfg.FrameTimeout, frameFail,
					encodeFail(shard, fmt.Sprintf("shard %d result rejected: %v", shard, err)))
				c.requeue(shard, err)
				return
			}
			c.metrics.results.Inc()
			c.metrics.shardSeconds.Observe(time.Since(assigned).Seconds())
			wlog.Info("dist: shard done", "shard", shard, "flows", len(r.Flows))
		case frameFail:
			idx, msg, _ := decodeFail(fp.b)
			fp.release()
			err := fmt.Errorf("dist: worker %s failed shard %d: %s", conn.RemoteAddr(), idx, msg)
			wlog.Warn("dist: worker failed shard", "shard", idx, "err", msg)
			c.requeue(shard, err)
			// The worker proved unable to compress; drop the connection so
			// the shard goes to a different worker.
			return
		default:
			fp.release()
			c.requeue(shard, fmt.Errorf("dist: unexpected %s frame", frameName(typ)))
			return
		}
	}
}

// acceptResult decodes a result blob, cross-checks it against the
// assignment and the coordinator's own configuration, and — atomically
// with the checks — records it and wakes waiters.
func (c *Coordinator) acceptResult(shard int, payload []byte) (*core.ShardResult, error) {
	r, err := DecodeShardState(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	if r.Index != shard {
		return nil, fmt.Errorf("dist: result is for shard %d, assigned %d", r.Index, shard)
	}
	if r.Count != c.cfg.Shards {
		return nil, fmt.Errorf("dist: result partitions into %d shards, run uses %d", r.Count, c.cfg.Shards)
	}
	if r.Opts != c.cfg.Opts {
		return nil, fmt.Errorf("dist: result was compressed with options %+v, coordinator requires %+v",
			r.Opts, c.cfg.Opts)
	}
	// Cross-check the stream length against shards already completed: a
	// worker reading a different input file is rejected now (and its shard
	// re-queued to a healthy worker) instead of poisoning the merge after
	// every shard has been compressed. Check and record share one critical
	// section so two simultaneous first results cannot both slip past it.
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, prev := range c.results {
		if prev.Packets != r.Packets {
			return nil, fmt.Errorf("dist: result scanned %d packets but shard %d scanned %d — workers are reading different streams",
				r.Packets, prev.Index, prev.Packets)
		}
		break
	}
	if _, ok := c.results[r.Index]; !ok {
		c.results[r.Index] = r
	}
	c.cond.Broadcast()
	return r, nil
}

// Wait blocks until every shard has a result, then merges and returns the
// archive — byte-for-byte identical to serial Compress over the same
// stream. It fails when a shard exhausts its retries or Close is called
// first. Wait shuts the service down before returning; it must be called at
// most once.
func (c *Coordinator) Wait() (*core.Archive, error) {
	c.mu.Lock()
	for !c.doneLocked() && !c.closed && c.fatalErr == nil {
		c.cond.Wait()
	}
	err := c.fatalErr
	if err == nil && !c.doneLocked() {
		err = errors.New("dist: coordinator closed before all shards completed")
	}
	results := make([]*core.ShardResult, 0, len(c.results))
	for _, r := range c.results {
		results = append(results, r)
	}
	c.mu.Unlock()

	// On success, let handlers deliver their done frames before the
	// connections go away, so every worker exits cleanly; on failure,
	// force-close to unblock handlers stuck in result reads.
	c.shutdown(err != nil)
	if err != nil {
		return nil, err
	}
	return core.MergeShardResults(results)
}

// shutdown wakes idle handlers and hands teardown to the shared server
// core — after it returns nothing is left running. force additionally
// closes open connections, unblocking handlers stuck in connection IO;
// without it handlers finish their current exchange (on a completed run
// that is exactly sending the final done frames — no handler can be blocked
// waiting for a result then, because every shard already has one).
func (c *Coordinator) shutdown(force bool) {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	stop := c.mstop
	c.mstop = nil
	c.mu.Unlock()
	c.srv.Shutdown(force)
	if stop != nil {
		stop()
	}
}

// Close aborts the run: it stops accepting workers, unblocks Wait with an
// error if shards are missing, and releases every connection. Safe to call
// concurrently with Wait and more than once.
func (c *Coordinator) Close() error {
	c.shutdown(true)
	return nil
}

// MergeShardFiles decodes .fzshard files and merges them into an archive —
// the offline half of the distributed pipeline, for shards moved between
// machines as files rather than over the worker protocol.
func MergeShardFiles(paths []string) (*core.Archive, error) {
	if len(paths) == 0 {
		return nil, errors.New("dist: no shard files to merge")
	}
	results := make([]*core.ShardResult, 0, len(paths))
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		r, err := DecodeShardState(bufio.NewReader(f))
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		results = append(results, r)
	}
	a, err := core.MergeShardResults(results)
	if err != nil {
		return nil, fmt.Errorf("dist: merging %d shard files: %w", len(paths), err)
	}
	return a, nil
}
