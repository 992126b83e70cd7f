package dist

import (
	"fmt"
	"net"
	"sync"
)

// Server is the accept-loop core under the ingestion daemon
// (internal/server): it owns the TCP listener, the open-connection registry,
// and the drain/force shutdown sequencing, so the service stops one way —
// listener closed, no goroutine left running after Shutdown returns.
type Server struct {
	ln      net.Listener
	handler func(net.Conn)

	mu     sync.Mutex
	open   map[net.Conn]struct{}
	closed bool

	acceptDone chan struct{}
	conns      sync.WaitGroup
	lnOnce     sync.Once
}

// Serve binds addr (empty means "127.0.0.1:0", an ephemeral loopback port)
// and starts accepting connections, running handler on each in its own
// goroutine. The handler owns the connection's protocol; the Server closes
// the conn and deregisters it when the handler returns.
func Serve(addr string, handler func(net.Conn)) (*Server, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:         ln,
		handler:    handler,
		open:       make(map[net.Conn]struct{}),
		acceptDone: make(chan struct{}),
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener address clients should dial — useful when Serve
// was asked for an ephemeral port.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// acceptLoop admits connections until the listener closes.
func (s *Server) acceptLoop() {
	defer close(s.acceptDone)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.open[conn] = struct{}{}
		s.mu.Unlock()
		s.conns.Add(1)
		go func() {
			defer s.conns.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.open, conn)
				s.mu.Unlock()
			}()
			s.handler(conn)
		}()
	}
}

// Shutdown closes the listener and waits for every connection handler to
// exit — after it returns nothing is left running. force additionally closes
// the open connections, unblocking handlers stuck in connection IO; without
// it handlers finish their current exchange first. Safe to call concurrently
// and more than once (a second caller blocks until the teardown completes).
func (s *Server) Shutdown(force bool) {
	s.mu.Lock()
	s.closed = true
	if force {
		for conn := range s.open {
			conn.Close()
		}
	}
	s.mu.Unlock()
	s.lnOnce.Do(func() { s.ln.Close() })
	<-s.acceptDone
	s.conns.Wait()
}
