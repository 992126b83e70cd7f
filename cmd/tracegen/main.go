// Command tracegen generates synthetic header traces: the Web-traffic model
// that stands in for the paper's RedIRIS/NLANR captures, the peer-to-peer
// model of the paper's future work, the random-destination variant, and the
// fractal (multiplicative process + LRU stack) trace of Section 6.
//
// Usage:
//
//	tracegen -kind web -flows 20000 -duration 60s -o web.tsh
//	tracegen -kind p2p -flows 20000 -duration 60s -o p2p.tsh
//	tracegen -kind random -base web.tsh -o random.tsh
//	tracegen -kind fractal -packets 100000 -o frac.pcap
//
// The output format follows the file extension (.tsh or .pcap).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"flowzip/internal/flowgen"
	"flowzip/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")

	var (
		kind     = flag.String("kind", "web", "trace kind: web, p2p, random, fractal")
		out      = flag.String("o", "trace.tsh", "output path (.tsh or .pcap)")
		seed     = flag.Uint64("seed", 1, "random seed")
		flows    = flag.Int("flows", 20000, "web, p2p: number of flows")
		duration = flag.Duration("duration", 60*time.Second, "web, p2p: trace duration")
		servers  = flag.Int("servers", 500, "web: server pool size")
		base     = flag.String("base", "", "random: base trace to re-address")
		packets  = flag.Int("packets", 100000, "fractal: packet count")
		quiet    = flag.Bool("q", false, "suppress the stats line")
	)
	flag.Parse()

	var (
		tr  *trace.Trace
		err error
	)
	if *kind == "web" || *kind == "p2p" {
		switch {
		case *flows < 1:
			log.Fatalf("-flows %d must be >= 1", *flows)
		case *duration <= 0:
			log.Fatalf("-duration %v must be positive", *duration)
		}
	}
	switch *kind {
	case "web":
		if *servers < 1 {
			log.Fatalf("-servers %d must be >= 1", *servers)
		}
		cfg := flowgen.DefaultWebConfig()
		cfg.Seed = *seed
		cfg.Flows = *flows
		cfg.Duration = *duration
		cfg.Servers = *servers
		tr = flowgen.Web(cfg)
	case "p2p":
		cfg := flowgen.DefaultP2PConfig()
		cfg.Seed = *seed
		cfg.Flows = *flows
		cfg.Duration = *duration
		tr = flowgen.P2P(cfg)
	case "random":
		if *base == "" {
			log.Fatal("-kind random requires -base")
		}
		var bt *trace.Trace
		bt, err = trace.LoadFile(*base)
		if err != nil {
			log.Fatal(err)
		}
		tr = flowgen.RandomizeAddresses(bt, *seed)
	case "fractal":
		if *packets < 1 {
			log.Fatalf("-packets %d must be >= 1", *packets)
		}
		cfg := flowgen.DefaultFractalConfig()
		cfg.Seed = *seed
		cfg.Packets = *packets
		tr = flowgen.Fractal(cfg)
	default:
		log.Fatalf("unknown kind %q (want web, p2p, random or fractal)", *kind)
	}

	if err := tr.SaveFile(*out); err != nil {
		log.Fatal(err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stdout, "%s: %s\n", *out, tr.ComputeStats())
	}
}
