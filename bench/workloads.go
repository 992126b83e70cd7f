package main

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"flowzip/internal/core"
	"flowzip/internal/flowgen"
	"flowzip/internal/pkt"
	"flowzip/internal/stats"
	"flowzip/internal/trace"
)

// workload is one traffic shape of the benchmark. The four shapes sit at the
// corners of the trace-complexity plane of Avin et al. (PAPERS.md): web has
// both temporal and non-temporal structure, distinct has neither in its flow
// patterns, bulk is a few long bursts, scan is all-distinct endpoints.
type workload struct {
	name string
	why  string
	gen  func(seed uint64, scale float64) *trace.Trace
	// shape checks the property that makes the workload isolate its layer,
	// from the serial archive of the generated trace; the run fails when a
	// generator drifts away from it.
	shape func(a *core.Archive) error
}

var workloads = []workload{
	{
		name:  "web",
		why:   "paper's Web mix (98% of flows under 51 packets, Zipf servers): flow table and memo-hit matching dominate, best ratio",
		gen:   genWeb,
		shape: shapeWeb,
	},
	{
		name:  "distinct",
		why:   "short flows with per-flow random patterns: every match is a first-fit miss, so cluster.Store and template sections dominate",
		gen:   genDistinct,
		shape: shapeDistinct,
	},
	{
		name:  "bulk",
		why:   "around a hundred long fat flows of thousands of packets, no clustering: per-packet parse, append and long-template encode dominate",
		gen:   genBulk,
		shape: shapeBulk,
	},
	{
		name:  "scan",
		why:   "one-packet SYN flows to all-distinct addresses: per-flow table, address, time-seq, index and Reader-open cost only",
		gen:   genScan,
		shape: shapeScan,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Full-scale sizes. They are set so one measured round (every timed op once)
// takes about two seconds on two cores; see README.md.
const (
	webFlows      = 50000
	distinctFlows = 9000
	bulkFlows     = 125
	scanFlows     = 100000
)

const distinctServers = 500

func scaled(n int, scale float64) int {
	if m := int(float64(n) * scale); m > 1 {
		return m
	}
	return 1
}

// quantize truncates timestamps to the microsecond grid both capture formats
// store, so the in-memory trace and the trace read back from in.pcap are the
// same packets and their archives can be compared byte for byte.
func quantize(tr *trace.Trace) *trace.Trace {
	for i := range tr.Packets {
		tr.Packets[i].Timestamp = tr.Packets[i].Timestamp.Truncate(time.Microsecond)
	}
	return tr
}

// webPopulation seeds flowgen.Web. The flow population (lengths, RTTs, server
// popularity) is the same for every -seed: lengths are power-law, and
// between independently drawn populations of 100 000 flows compress_ratio
// moves by 0.6% (quartile to quartile), more than the bound it has to hold.
// The seed instead relabels every address and delays each conversation by up
// to 67 ms (flows arrive 6 ms apart and last a few round trips of 50 ms),
// which changes which flows interleave, the order they finish in and hence
// the order templates are founded in. Delays of up to a second moved
// extract_read_frac by 0.3% between seeds, because they also move flows
// between the index's groups.
const webPopulation = 1

func genWeb(seed uint64, scale float64) *trace.Trace {
	cfg := flowgen.DefaultWebConfig()
	cfg.Seed = webPopulation
	cfg.Flows = scaled(webFlows, scale)
	cfg.Duration = time.Duration(cfg.Flows) * 6 * time.Millisecond
	tr := flowgen.Web(cfg)
	rng := stats.NewRNG(seed)
	mask, salt := rng.Uint32(), rng.Uint64()|1
	for i := range tr.Packets {
		p := &tr.Packets[i]
		client := uint64(p.SrcIP)<<16 | uint64(p.SrcPort)
		if p.SrcPort == 80 {
			client = uint64(p.DstIP)<<16 | uint64(p.DstPort)
		}
		// The top 26 bits of a multiplicative hash of the client endpoint:
		// one delay per conversation, up to 67 ms.
		p.Timestamp += time.Duration(client * salt >> 38)
		p.SrcIP ^= pkt.IPv4(mask)
		p.DstIP ^= pkt.IPv4(mask)
	}
	sortByTime(tr.Packets)
	return quantize(tr)
}

// conv builds one TCP conversation packet by packet: compact construction of
// just the header fields a header trace carries (after the fatun pack
// snippet, SNIPPETS.md).
type conv struct {
	out            *[]pkt.Packet
	client, server pkt.IPv4
	cport          uint16
	ts             time.Duration
}

func (c *conv) emit(fromClient bool, flags pkt.TCPFlags, payload uint16, gap time.Duration) {
	c.ts += gap
	p := pkt.Packet{
		Timestamp: c.ts, Proto: pkt.ProtoTCP, Flags: flags, PayloadLen: payload,
		Window: 65535, TTL: 64,
	}
	if fromClient {
		p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = c.client, c.server, c.cport, 80
	} else {
		p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = c.server, c.client, 80, c.cport
	}
	*c.out = append(*c.out, p)
}

// distinctAddr maps i to a distinct public-looking address: multiplying by an
// odd constant is a bijection on uint32, so no two i collide.
func distinctAddr(base uint32, i int) pkt.IPv4 {
	return pkt.IPv4(base + uint32(i)*2654435761)
}

// sortByTime orders packets by timestamp, keeping the order of simultaneous
// ones. slices.SortStableFunc moves the 40-byte packets three times faster
// than sort.SliceStable's reflection swapper, and the sort is most of what
// setup_s times on bulk.
func sortByTime(packets []pkt.Packet) {
	slices.SortStableFunc(packets, func(a, b pkt.Packet) int { return cmp.Compare(a.Timestamp, b.Timestamp) })
}

func sortedTrace(name string, packets []pkt.Packet) *trace.Trace {
	sortByTime(packets)
	return &trace.Trace{Name: name, Packets: packets}
}

// genDistinct: short flows (24-48 packets, under ShortMax) whose direction
// and payload class are random per packet, so two flows of equal length are
// almost never within the 2% distance limit and nearly every flow founds a
// template.
func genDistinct(seed uint64, scale float64) *trace.Trace {
	rng := stats.NewRNG(seed)
	flows := scaled(distinctFlows, scale)
	payloads := [3]uint16{0, 256, 1460}
	packets := make([]pkt.Packet, 0, flows*37)
	base, offset := rng.Uint32(), rng.Intn(25)
	for i := 0; i < flows; i++ {
		c := conv{
			out:    &packets,
			client: distinctAddr(base, i),
			// Servers take flows in turn, so every server has the same number.
			server: pkt.Addr(198, 51, byte(i%distinctServers/250), byte(1+i%250)),
			cport:  uint16(1024 + rng.Intn(60000)),
			ts:     time.Duration(i)*400*time.Microsecond + time.Duration(rng.Intn(300))*time.Microsecond,
		}
		// Lengths take turns too, a step further on each pass over the
		// servers so that every server sees many lengths. Drawn
		// independently, they moved extract_read_frac by 0.5% and
		// compress_alloc_b_per_pkt by 0.8% between seeds.
		n := 24 + (offset+i+i/distinctServers)%25
		c.emit(true, pkt.FlagSYN, 0, 0)
		c.emit(false, pkt.FlagSYN|pkt.FlagACK, 0, 900*time.Microsecond)
		for k := 0; k < n-4; k++ {
			c.emit(rng.Intn(2) == 0, pkt.FlagACK, payloads[rng.Intn(3)], time.Duration(200+rng.Intn(600))*time.Microsecond)
		}
		c.emit(true, pkt.FlagFIN|pkt.FlagACK, 0, 500*time.Microsecond)
		c.emit(false, pkt.FlagFIN|pkt.FlagACK, 0, 900*time.Microsecond)
	}
	return sortedTrace("distinct", packets)
}

// genBulk: long transfers of 2-5 thousand packets each, every one to its own
// server: all flows are far over ShortMax, so nothing is clustered. With so
// few flows, lengths and ack cadences are spread evenly over their ranges
// from a seeded offset, not drawn independently: independent draws moved the
// packet count, and with it bytes allocated per packet, by 10% between seeds.
func genBulk(seed uint64, scale float64) *trace.Trace {
	rng := stats.NewRNG(seed)
	flows := scaled(bulkFlows, scale)
	packets := make([]pkt.Packet, 0, flows*3500)
	base, offset := rng.Uint32(), rng.Intn(3001)
	for i := 0; i < flows; i++ {
		c := conv{
			out:    &packets,
			client: pkt.Addr(10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1+rng.Intn(250))),
			server: distinctAddr(base, i),
			cport:  uint16(1024 + rng.Intn(60000)),
			ts:     time.Duration(i)*2*time.Millisecond + time.Duration(rng.Intn(1000))*time.Microsecond,
		}
		n := 2000 + (offset+i*3001/flows)%3001
		ackEvery := 2 + (offset+i)%3
		c.emit(true, pkt.FlagSYN, 0, 0)
		c.emit(false, pkt.FlagSYN|pkt.FlagACK, 0, 2*time.Millisecond)
		c.emit(true, pkt.FlagACK|pkt.FlagPSH, 300, 2*time.Millisecond)
		for k := 0; k < n-5; k++ {
			if k%(ackEvery+1) == ackEvery {
				c.emit(true, pkt.FlagACK, 0, 2*time.Millisecond)
			} else {
				c.emit(false, pkt.FlagACK, 1460, time.Duration(100+rng.Intn(100))*time.Microsecond)
			}
		}
		c.emit(true, pkt.FlagFIN|pkt.FlagACK, 0, 2*time.Millisecond)
		c.emit(false, pkt.FlagFIN|pkt.FlagACK, 0, 2*time.Millisecond)
	}
	return sortedTrace("bulk", packets)
}

// genScan: a SYN sweep, one packet per flow, every destination distinct.
func genScan(seed uint64, scale float64) *trace.Trace {
	rng := stats.NewRNG(seed)
	flows := scaled(scanFlows, scale)
	packets := make([]pkt.Packet, 0, flows)
	base := rng.Uint32()
	c := conv{out: &packets, client: pkt.Addr(203, 0, 113, byte(1+rng.Intn(250)))}
	for i := 0; i < flows; i++ {
		c.server = distinctAddr(base, i)
		c.cport = uint16(1024 + rng.Intn(60000))
		c.emit(true, pkt.FlagSYN, 0, time.Duration(5+rng.Intn(30))*time.Microsecond)
	}
	return &trace.Trace{Name: "scan", Packets: packets}
}

func shortFlows(a *core.Archive) (short int, longPackets int) {
	for i := range a.TimeSeq {
		if r := &a.TimeSeq[i]; r.Long {
			longPackets += len(a.LongTemplates[r.Template].F)
		} else {
			short++
		}
	}
	return short, longPackets
}

func shapeWeb(a *core.Archive) error {
	short, _ := shortFlows(a)
	if share := float64(short) / float64(a.Flows()); share < 0.97 {
		return fmt.Errorf("web: short-flow share %.4f < 0.97", share)
	}
	return nil
}

func shapeDistinct(a *core.Archive) error {
	if share := float64(len(a.ShortTemplates)) / float64(a.Flows()); share < 0.95 {
		return fmt.Errorf("distinct: templates/flows %.4f < 0.95", share)
	}
	return nil
}

func shapeBulk(a *core.Archive) error {
	_, long := shortFlows(a)
	if share := float64(long) / float64(a.Packets()); share < 0.99 {
		return fmt.Errorf("bulk: long-flow packet share %.4f < 0.99", share)
	}
	return nil
}

func shapeScan(a *core.Archive) error {
	if a.Flows() != a.Packets() {
		return fmt.Errorf("scan: %d flows for %d packets, want one packet per flow", a.Flows(), a.Packets())
	}
	return nil
}
