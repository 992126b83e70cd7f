package netbench

import (
	"net"
	"sync"
	"time"

	"flowzip/internal/core"
	"flowzip/internal/dist"
	"flowzip/internal/server"
	"flowzip/internal/trace"
)

// DelayProxy is a loopback TCP relay that adds a fixed one-way delay of
// RTT/2 in each direction. It models link latency, not link capacity: each
// chunk is timestamped as it is read and delivered once its delay elapses,
// while reads keep draining the socket — so concurrent in-flight data is
// unconstrained and only delivery is late. That is exactly the regime where
// a credit window pays off: with stop-and-wait every batch eats a full RTT,
// with window w up to w batches share one.
type DelayProxy struct {
	ln    net.Listener
	addr  string // relay target
	delay time.Duration

	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  []net.Conn
	closed bool
}

// NewDelayProxy listens on an ephemeral loopback port and relays every
// accepted connection to target with the given round-trip time split evenly
// across the two directions.
func NewDelayProxy(target string, rtt time.Duration) (*DelayProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &DelayProxy{ln: ln, addr: target, delay: rtt / 2}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr is the address clients dial instead of the real target.
func (p *DelayProxy) Addr() string { return p.ln.Addr().String() }

// Close stops accepting, tears down every relayed connection and waits for
// the relay goroutines to drain.
func (p *DelayProxy) Close() error {
	p.mu.Lock()
	p.closed = true
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	err := p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
	return err
}

func (p *DelayProxy) accept() {
	defer p.wg.Done()
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.addr)
		if err != nil {
			down.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			down.Close()
			up.Close()
			return
		}
		p.conns = append(p.conns, down, up)
		p.wg.Add(2)
		p.mu.Unlock()
		go p.relay(down, up)
		go p.relay(up, down)
	}
}

// relay copies src to dst, holding each chunk back until its one-way delay
// has elapsed. The reader and the delayed writer are decoupled by a deep
// queue so latency never throttles bandwidth.
func (p *DelayProxy) relay(src, dst net.Conn) {
	defer p.wg.Done()
	type chunk struct {
		b   []byte
		due time.Time
	}
	ch := make(chan chunk, 4096)
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for c := range ch {
			time.Sleep(time.Until(c.due))
			if _, err := dst.Write(c.b); err != nil {
				break
			}
		}
		for range ch {
			// Drain after a write error so the reader never blocks.
		}
		// Propagate EOF as a half-close so the peer's read side ends while
		// its own writes (e.g. the final ack) still flow.
		if tc, ok := dst.(*net.TCPConn); ok {
			tc.CloseWrite()
		} else {
			dst.Close()
		}
	}()
	for {
		buf := make([]byte, 32<<10)
		n, err := src.Read(buf)
		if n > 0 {
			ch <- chunk{b: buf[:n], due: time.Now().Add(p.delay)}
		}
		if err != nil {
			break
		}
	}
	close(ch)
	writer.Wait()
}

// IngestTrace streams tr into the daemon at addr in batches of batch packets
// (trace.DefaultBatch when batch <= 0) over one pipelined session with the
// requested credit window, then closes the session and returns its summary.
// This is the measured unit of the ingest benchmarks and a convenience for
// tests that want a whole-trace ingest.
func IngestTrace(addr, tenant string, tr *trace.Trace, batch, window int) (dist.SessionSummary, error) {
	return server.Ingest(addr, tenant, trace.Batches(tr, batch), core.DefaultOptions(), dist.NetConfig{Window: window})
}
