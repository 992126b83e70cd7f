// Command flowzipd is the long-lived multi-tenant ingestion daemon: capture
// clients (flowzip ingest, or anything speaking the framed session protocol)
// stream packet batches over TCP, the daemon compresses each session with its
// own bounded pipeline, and the archives land under one directory per tenant,
// rotated on size/age boundaries with a .fzmeta sidecar each. Every archive
// segment is byte-for-byte identical to a serial flowzip compress over the
// same packets.
//
// Usage:
//
//	flowzipd -listen :9100 -dir /var/lib/flowzip [-metrics :9101 [-pprof]]
//	flowzipd -listen :9100 -dir archives -rotate-packets 1000000 -rotate-age 1h
//	flowzipd -listen :9100 -dir archives -max-sessions 64 -max-archive-bytes 1000000000
//	flowzipd -listen :9100 -dir archives -window 32 -frame-timeout 30s -result-timeout 15m
//	flowzipd -listen :9100 -dir archives -q -drain-timeout 30s
//
// The daemon applies backpressure per session — a batch is acked only after
// it is inside that session's pipeline, whose fixed queue of flow batches
// caps daemon memory — so a capture client can never run ahead of
// compression. -metrics serves Prometheus text on /metrics — session and
// segment counters, batch/segment latency histograms, pipeline and Go runtime
// series — and -pprof adds net/http/pprof plus expvar under /debug on the
// same listener.
//
// SIGINT/SIGTERM drains gracefully: open sessions are finalized (clients see
// a drain notice with their summary), buffered packets are flushed into
// archives, and the process exits once every session has landed or
// -drain-timeout expires (a second signal forces immediate exit).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flowzip/internal/cli"
	"flowzip/internal/obs"
	"flowzip/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("flowzipd: ")
	fs := flag.NewFlagSet("flowzipd", flag.ExitOnError)
	listen := fs.String("listen", ":9100", "TCP address to accept capture sessions on")
	metrics := cli.MetricsAddrFlag(fs, "metrics")
	debug := cli.PprofFlag(fs)
	dir := fs.String("dir", "", "archive root; each tenant's segments land in <dir>/<tenant>/")
	maxSessions := fs.Int("max-sessions", 0, "cap on concurrently open sessions across all tenants (0 = unlimited)")
	maxArchiveBytes := fs.Int64("max-archive-bytes", 0, "cap on encoded archive bytes per tenant over the daemon's lifetime (0 = unlimited)")
	rotPackets, rotAge := cli.RotationFlags(fs)
	buildNet := cli.NetFlags(fs, "session", "the session's next packet batch")
	window := cli.WindowFlag(fs, "each session")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long graceful shutdown waits for open sessions to finalize")
	quiet := fs.Bool("q", false, "suppress per-session progress on stderr")
	fs.Parse(os.Args[1:])

	if *dir == "" {
		log.Fatal("-dir required")
	}
	// The ranges of -window, the quotas and the rotation bounds are
	// server.New's to check.
	nc := buildNet()
	if err := cli.ValidateNet(nc); err != nil {
		log.Fatal(err)
	}
	nc.Window = *window
	if err := cli.ValidatePprof(*debug, *metrics); err != nil {
		log.Fatal(err)
	}

	cfg := server.Config{
		ListenAddr:  *listen,
		MetricsAddr: *metrics,
		Debug:       *debug,
		Dir:         *dir,
		Net:         nc,
		Quotas: server.Quotas{
			MaxSessions:     *maxSessions,
			MaxArchiveBytes: *maxArchiveBytes,
		},
		Rotation: server.Rotation{MaxPackets: *rotPackets, MaxAge: *rotAge},
	}
	if !*quiet {
		cfg.Logger = obs.NewLogger("flowzipd")
	}
	d, err := server.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "flowzipd: ingesting on %s, archives under %s\n", d.Addr(), *dir)
	if ma := d.MetricsAddr(); ma != nil {
		fmt.Fprintf(os.Stderr, "flowzipd: metrics on http://%s/metrics\n", ma)
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	sig := <-sigs
	log.Printf("%s: draining %d open sessions (up to %v; signal again to force exit)",
		sig, d.ActiveSessions(), *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		<-sigs
		log.Print("forced exit")
		cancel()
	}()
	if err := d.Shutdown(ctx); err != nil {
		d.Close()
		log.Fatalf("drain incomplete: %v", err)
	}
	log.Print("drained cleanly")
}
