// Package flowgen generates the synthetic traces that stand in for the
// paper's captured RedIRIS/NLANR data: a structural Web-traffic model
// (Poisson flow arrivals, heavy-tailed flow lengths, TCP handshake/teardown,
// Zipf server popularity, lognormal RTTs), plus the two synthetic
// comparison traces of Section 6 — random destination addresses and the
// "multiplicative process + LRU stack model" fractal trace.
package flowgen

import (
	"slices"
	"time"

	"flowzip/internal/pkt"
	"flowzip/internal/stats"
	"flowzip/internal/trace"
)

// WebConfig parameterizes the Web-traffic generator.
type WebConfig struct {
	// Seed drives every random stream; identical seeds give identical traces.
	Seed uint64
	// Flows is the number of conversations to generate.
	Flows int
	// Duration is the span over which flow arrivals spread.
	Duration time.Duration
	// Servers is the size of the popular-server pool (Zipf popularity).
	Servers int
	// ServerZipf is the popularity skew exponent (0 = uniform).
	ServerZipf float64
	// ClientNets is the number of distinct client /24 networks.
	ClientNets int
	// RTTMedian and RTTSigma parameterize the lognormal per-flow RTT.
	RTTMedian time.Duration
	RTTSigma  float64
	// LengthAlpha and MaxLength shape the discrete power-law flow length
	// (support [2, MaxLength], P(n) ~ n^-alpha).
	LengthAlpha float64
	MaxLength   int
}

// DefaultWebConfig mirrors the paper's trace properties: ~98% of flows under
// 51 packets, strong server locality, RTTs around 50 ms.
func DefaultWebConfig() WebConfig {
	return WebConfig{
		Seed:        1,
		Flows:       10000,
		Duration:    60 * time.Second,
		Servers:     500,
		ServerZipf:  1.1,
		ClientNets:  800,
		RTTMedian:   50 * time.Millisecond,
		RTTSigma:    0.5,
		LengthAlpha: 2.4,
		MaxLength:   2000,
	}
}

// Web generates a Web header trace. Packets are returned in timestamp order.
// Its conversations are interleaved into a slice made once, at its final
// length: the flow lengths are their own random stream, so their sum is known before the
// first conversation exists.
func Web(cfg WebConfig) *trace.Trace {
	m := newWebModel(cfg)
	return drained("web", m, lengthSum(m.lengths, m.lenRNG, m.remaining()))
}

// arrivals is the Poisson arrival process of a traffic model: conversations
// start one exponential gap after the other, so their start times never
// decrease — the condition the run merge (interleaver) admits them under.
type arrivals struct {
	rng     *stats.RNG
	meanGap float64
	flows   int
	emitted int
	start   time.Duration
	// havePending marks that start already holds the next conversation's
	// arrival time (peekStart samples it lazily, once per conversation).
	havePending bool
}

// newArrivals spreads flows arrivals over span. A negative span would make
// every gap negative and the start times decrease; it is taken as zero, all
// conversations starting together.
func newArrivals(rng *stats.RNG, flows int, span time.Duration) arrivals {
	return arrivals{rng: rng, flows: flows, meanGap: float64(max(span, 0)) / float64(flows)}
}

// remaining returns the number of conversations not yet generated.
func (a *arrivals) remaining() int { return a.flows - a.emitted }

// peekStart returns the next conversation's arrival time without generating
// it. No later conversation can start — or carry any packet — earlier than
// this, which is what lets the interleaver emit packets before every
// conversation exists.
func (a *arrivals) peekStart() time.Duration {
	if !a.havePending {
		a.start += time.Duration(stats.Exponential{Mean: a.meanGap}.Sample(a.rng))
		a.havePending = true
	}
	return a.start
}

// take returns the next conversation's arrival time and counts the
// conversation as generated.
func (a *arrivals) take() time.Duration {
	start := a.peekStart()
	a.havePending = false
	a.emitted++
	return start
}

// webModel is the Web generator's sampling state: conversation i of a given
// config is a function of the config alone.
type webModel struct {
	cfg WebConfig
	arrivals

	addrRNG, lenRNG, rttRNG, bodyRNG *stats.RNG

	lengths   *stats.DiscretePowerLaw
	serverPop *stats.Zipf
	rttDist   stats.LogNormal

	servers    []pkt.IPv4
	clientNets []uint32
}

func newWebModel(cfg WebConfig) *webModel {
	m := &webModel{cfg: cfg}
	if cfg.Flows <= 0 {
		return m
	}
	if m.cfg.Servers <= 0 {
		m.cfg.Servers = 1
	}
	if m.cfg.ClientNets <= 0 {
		m.cfg.ClientNets = 1
	}
	if m.cfg.MaxLength < 2 {
		m.cfg.MaxLength = 2
	}

	root := stats.NewRNG(m.cfg.Seed)
	m.arrivals = newArrivals(root.Split(), m.cfg.Flows, m.cfg.Duration)
	m.addrRNG = root.Split()
	m.lenRNG = root.Split()
	m.rttRNG = root.Split()
	m.bodyRNG = root.Split()

	m.lengths = stats.NewDiscretePowerLaw(2, m.cfg.MaxLength, m.cfg.LengthAlpha)
	m.serverPop = stats.NewZipf(m.cfg.Servers, m.cfg.ServerZipf)
	m.rttDist = stats.LogNormal{Median: float64(m.cfg.RTTMedian), Sigma: m.cfg.RTTSigma}

	// Server pool: stable pseudo-random public-looking addresses.
	m.servers = make([]pkt.IPv4, m.cfg.Servers)
	seen := map[pkt.IPv4]bool{}
	for i := range m.servers {
		for {
			a := pkt.Addr(byte(20+m.addrRNG.Intn(180)), byte(m.addrRNG.Intn(256)), byte(m.addrRNG.Intn(256)), byte(1+m.addrRNG.Intn(254)))
			if !seen[a] {
				seen[a] = true
				m.servers[i] = a
				break
			}
		}
	}
	m.clientNets = make([]uint32, m.cfg.ClientNets)
	for i := range m.clientNets {
		m.clientNets[i] = uint32(pkt.Addr(byte(1+m.addrRNG.Intn(126)), byte(m.addrRNG.Intn(256)), byte(m.addrRNG.Intn(256)), 0))
	}
	return m
}

// lengthSum returns the sum of the next flows draws of a flow-length stream,
// made on a copy: the stream itself stays where it is. (A model of no flows
// has no streams; flows is 0 then.)
func lengthSum(lengths *stats.DiscretePowerLaw, rng *stats.RNG, flows int) int {
	n := 0
	if flows > 0 {
		ahead := *rng
		for ; flows > 0; flows-- {
			n += lengths.SampleInt(&ahead)
		}
	}
	return n
}

// generate appends the next conversation's packets to dst (in intra-flow
// time order; interleaving across flows is the caller's concern).
func (m *webModel) generate(dst []pkt.Packet) []pkt.Packet {
	start := m.take()
	server := m.servers[m.serverPop.SampleInt(m.addrRNG)]
	client := pkt.IPv4(m.clientNets[m.addrRNG.Intn(len(m.clientNets))] | uint32(1+m.addrRNG.Intn(254)))
	cport := uint16(m.addrRNG.IntRange(1024, 65000))
	n := m.lengths.SampleInt(m.lenRNG)
	rtt := time.Duration(m.rttDist.Sample(m.rttRNG))
	if rtt < time.Millisecond {
		rtt = time.Millisecond
	}
	return emitConversation(slices.Grow(dst, n), m.bodyRNG, client, server, cport, start, rtt, n)
}

// emitConversation appends exactly n packets of one TCP conversation.
//
// Structure (n >= 6): SYN, SYN+ACK, ACK, request, n-6 body packets
// (server data with client acks interleaved), FIN+ACK from client,
// FIN+ACK from server. Shorter flows degrade gracefully:
//
//	n=2: SYN, SYN+ACK            (unanswered handshake)
//	n=3: SYN, SYN+ACK, ACK       (connect then idle/abandon)
//	n=4: handshake + RST         (aborted request)
//	n=5: handshake + request + RST
type conversationState struct {
	out          []pkt.Packet
	client       pkt.IPv4
	server       pkt.IPv4
	cport        uint16
	serverPort   uint16 // 80 for Web; ephemeral for P2P
	ts           time.Duration
	cSeq, sSeq   uint32
	cIPID, sIPID uint16 // per-endpoint IP ID counters, as real hosts keep
	cWin, sWin   uint16
	cTTL, sTTL   uint8
	lastDir      int // +1 client, -1 server, 0 none
	rtt          time.Duration
	rng          *stats.RNG
}

var commonWindows = []uint16{5840, 8192, 16384, 32768, 65535}

func emitConversation(dst []pkt.Packet, rng *stats.RNG, client, server pkt.IPv4, cport uint16, start time.Duration, rtt time.Duration, n int) []pkt.Packet {
	st := &conversationState{
		out: dst, client: client, server: server, cport: cport,
		serverPort: 80,
		ts:         start, cSeq: rng.Uint32(), sSeq: rng.Uint32(),
		cIPID: uint16(rng.Uint32()), sIPID: uint16(rng.Uint32()),
		cWin: commonWindows[rng.Intn(len(commonWindows))],
		sWin: commonWindows[rng.Intn(len(commonWindows))],
		cTTL: uint8(64 - rng.Intn(25)), sTTL: uint8(128 - rng.Intn(25)),
		rtt: rtt, rng: rng,
	}
	switch {
	case n <= 2:
		st.emit(true, pkt.FlagSYN, 0)
		st.emit(false, pkt.FlagSYN|pkt.FlagACK, 0)
	case n == 3:
		st.emit(true, pkt.FlagSYN, 0)
		st.emit(false, pkt.FlagSYN|pkt.FlagACK, 0)
		st.emit(true, pkt.FlagACK, 0)
	case n == 4:
		st.emit(true, pkt.FlagSYN, 0)
		st.emit(false, pkt.FlagSYN|pkt.FlagACK, 0)
		st.emit(true, pkt.FlagACK, 0)
		st.emit(true, pkt.FlagRST, 0)
	case n == 5:
		st.emit(true, pkt.FlagSYN, 0)
		st.emit(false, pkt.FlagSYN|pkt.FlagACK, 0)
		st.emit(true, pkt.FlagACK, 0)
		st.emit(true, pkt.FlagACK|pkt.FlagPSH, uint16(200+rng.Intn(300)))
		st.emit(false, pkt.FlagRST, 0)
	default:
		st.emit(true, pkt.FlagSYN, 0)
		st.emit(false, pkt.FlagSYN|pkt.FlagACK, 0)
		st.emit(true, pkt.FlagACK, 0)
		st.emit(true, pkt.FlagACK|pkt.FlagPSH, uint16(200+rng.Intn(300)))

		// Per-flow behavioural diversity: the client's ack cadence, whether
		// the connection is persistent (a second request mid-stream) and an
		// abortive RST ending all vary, so same-length flows form several
		// distinct characterization patterns — the cluster structure the
		// paper studies.
		ackEvery := 2 + rng.Intn(3) // ack every 2..4 server segments
		rstEnd := rng.Bool(0.10)
		body := n - 6
		if rstEnd {
			body = n - 5
		}
		extraReq := -1
		if body >= 5 && rng.Bool(0.3) {
			extraReq = body/2 + rng.Intn(body/4+1)
		}
		sinceAck := 0
		for i := 0; i < body; i++ {
			if i == extraReq {
				// Persistent connection: next request on the same flow.
				st.emit(true, pkt.FlagACK|pkt.FlagPSH, uint16(200+rng.Intn(300)))
				sinceAck = 0
				continue
			}
			// Every few server segments the client acknowledges.
			if sinceAck >= ackEvery && i < body-1 {
				st.emit(true, pkt.FlagACK, 0)
				sinceAck = 0
				continue
			}
			payload := uint16(1460)
			if rng.Bool(0.25) {
				payload = uint16(100 + rng.Intn(1200))
			}
			st.emit(false, pkt.FlagACK|pkt.FlagPSH, payload)
			sinceAck++
		}
		if rstEnd {
			st.emit(true, pkt.FlagRST, 0)
		} else {
			st.emit(true, pkt.FlagFIN|pkt.FlagACK, 0)
			st.emit(false, pkt.FlagFIN|pkt.FlagACK, 0)
		}
	}
	return st.out
}

// emit appends one packet, advancing the clock: a direction change costs one
// RTT (the packet answers the peer), staying in the same direction costs a
// short transmission gap.
func (st *conversationState) emit(fromClient bool, flags pkt.TCPFlags, payload uint16) {
	dir := -1
	if fromClient {
		dir = 1
	}
	switch {
	case st.lastDir == 0:
		// First packet: no wait.
	case dir != st.lastDir:
		// Dependent on the peer: one RTT plus jitter.
		st.ts += st.rtt + time.Duration(float64(st.rtt)*0.1*st.rng.Float64())
	default:
		// Back-to-back segment: transmission/processing gap.
		st.ts += time.Duration(stats.Exponential{Mean: float64(300 * time.Microsecond)}.Sample(st.rng))
	}
	st.lastDir = dir

	p := pkt.Packet{
		// Quantize to the microsecond resolution of capture formats so
		// generated traces round-trip bit-exact through TSH/pcap files.
		Timestamp:  quantizeTS(st.ts),
		Proto:      pkt.ProtoTCP,
		Flags:      flags,
		PayloadLen: payload,
	}
	if fromClient {
		p.SrcIP, p.DstIP = st.client, st.server
		p.SrcPort, p.DstPort = st.cport, st.serverPort
		p.Seq, p.Ack = st.cSeq, st.sSeq
		p.TTL, p.Window, p.IPID = st.cTTL, st.cWin, st.cIPID
		st.cIPID++
		st.cSeq += uint32(payload)
		if flags&(pkt.FlagSYN|pkt.FlagFIN) != 0 {
			st.cSeq++
		}
	} else {
		p.SrcIP, p.DstIP = st.server, st.client
		p.SrcPort, p.DstPort = st.serverPort, st.cport
		p.Seq, p.Ack = st.sSeq, st.cSeq
		p.TTL, p.Window, p.IPID = st.sTTL, st.sWin, st.sIPID
		st.sIPID++
		st.sSeq += uint32(payload)
		if flags&(pkt.FlagSYN|pkt.FlagFIN) != 0 {
			st.sSeq++
		}
	}
	st.out = append(st.out, p)
}
