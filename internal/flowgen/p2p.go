package flowgen

import (
	"slices"
	"time"

	"flowzip/internal/pkt"
	"flowzip/internal/stats"
	"flowzip/internal/trace"
)

// P2P implements the paper's second future-work item: "verifying also the
// applicability of the method to other types of applications like P2P".
//
// P2P traffic differs from Web traffic in the ways that stress the
// flow-clustering compressor: transfers are bidirectional (both endpoints
// push data), flows are longer and heavier-tailed, ports are ephemeral on
// both sides, peer popularity is flatter than server popularity, and
// keep-alive chatter interleaves with bulk transfer. The P2PTable experiment
// quantifies how much of the Web-traffic compression advantage survives.

// P2PConfig parameterizes the peer-to-peer generator.
type P2PConfig struct {
	Seed     uint64
	Flows    int
	Duration time.Duration
	// Peers is the size of the swarm (both sides of every flow are drawn
	// from it).
	Peers int
	// PeerZipf is the peer-popularity skew (flatter than Web's server skew).
	PeerZipf float64
	// RTTMedian and RTTSigma parameterize per-flow RTT.
	RTTMedian time.Duration
	RTTSigma  float64
	// LengthAlpha shapes the flow length power law; P2P transfers are
	// heavier-tailed than Web (smaller alpha).
	LengthAlpha float64
	MaxLength   int
	// ChatterProb is the per-flow probability of being a short keep-alive
	// exchange rather than a transfer.
	ChatterProb float64
}

// DefaultP2PConfig mirrors published P2P workload characterizations:
// heavier-tailed flow lengths, flat peer popularity, symmetric data flow.
func DefaultP2PConfig() P2PConfig {
	return P2PConfig{
		Seed:        1,
		Flows:       10000,
		Duration:    60 * time.Second,
		Peers:       2000,
		PeerZipf:    0.6,
		RTTMedian:   80 * time.Millisecond,
		RTTSigma:    0.7,
		LengthAlpha: 1.9,
		MaxLength:   5000,
		ChatterProb: 0.35,
	}
}

// P2P generates a peer-to-peer header trace in timestamp order: the same run
// merge as Web's, over conversations of the peer-to-peer model. The output is
// reserved at the sum of the flow lengths, which bounds the packet count from
// above: a keep-alive exchange is a transfer cut short, and which flows are
// cut is decided on the body stream, between the draws of the flows before.
func P2P(cfg P2PConfig) *trace.Trace {
	m := newP2PModel(cfg)
	return drained("p2p", m, lengthSum(m.lengths, m.lenRNG, m.remaining()))
}

// p2pModel is the peer-to-peer generator's sampling state.
type p2pModel struct {
	cfg P2PConfig
	arrivals

	addrRNG, lenRNG, rttRNG, bodyRNG *stats.RNG

	lengths *stats.DiscretePowerLaw
	pop     *stats.Zipf
	rttDist stats.LogNormal

	peers []pkt.IPv4
}

func newP2PModel(cfg P2PConfig) *p2pModel {
	m := &p2pModel{cfg: cfg}
	if cfg.Flows <= 0 {
		return m
	}
	if m.cfg.Peers < 2 {
		m.cfg.Peers = 2
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
	m.pop = stats.NewZipf(m.cfg.Peers, m.cfg.PeerZipf)
	m.rttDist = stats.LogNormal{Median: float64(m.cfg.RTTMedian), Sigma: m.cfg.RTTSigma}

	m.peers = make([]pkt.IPv4, m.cfg.Peers)
	seen := map[pkt.IPv4]bool{}
	for i := range m.peers {
		for {
			a := pkt.Addr(byte(2+m.addrRNG.Intn(220)), byte(m.addrRNG.Intn(256)), byte(m.addrRNG.Intn(256)), byte(1+m.addrRNG.Intn(254)))
			if !seen[a] {
				seen[a] = true
				m.peers[i] = a
				break
			}
		}
	}
	return m
}

// generate appends the next exchange's packets to dst, in time order.
func (m *p2pModel) generate(dst []pkt.Packet) []pkt.Packet {
	start := m.take()
	a := m.peers[m.pop.SampleInt(m.addrRNG)]
	b := m.peers[m.pop.SampleInt(m.addrRNG)]
	for b == a {
		b = m.peers[m.pop.SampleInt(m.addrRNG)]
	}
	aPort := uint16(m.addrRNG.IntRange(1024, 65000))
	bPort := uint16(m.addrRNG.IntRange(1024, 65000))
	rtt := time.Duration(m.rttDist.Sample(m.rttRNG))
	if rtt < time.Millisecond {
		rtt = time.Millisecond
	}
	n := m.lengths.SampleInt(m.lenRNG)
	if m.bodyRNG.Bool(m.cfg.ChatterProb) && n > 8 {
		n = 2 + m.bodyRNG.Intn(7) // keep-alive exchange
	}
	return emitP2PFlow(slices.Grow(dst, n), m.bodyRNG, a, b, aPort, bPort, start, rtt, n)
}

// emitP2PFlow appends exactly n packets of one peer exchange: handshake,
// then interleaved bidirectional data (each side pushes pieces), then
// teardown. Unlike Web flows, payload-bearing packets travel both ways.
func emitP2PFlow(dst []pkt.Packet, rng *stats.RNG, a, b pkt.IPv4, aPort, bPort uint16, start time.Duration, rtt time.Duration, n int) []pkt.Packet {
	st := &conversationState{
		out: dst, client: a, server: b, cport: aPort,
		ts: start, cSeq: rng.Uint32(), sSeq: rng.Uint32(),
		cIPID: uint16(rng.Uint32()), sIPID: uint16(rng.Uint32()),
		cWin: commonWindows[rng.Intn(len(commonWindows))],
		sWin: commonWindows[rng.Intn(len(commonWindows))],
		cTTL: uint8(64 - rng.Intn(25)), sTTL: uint8(64 - rng.Intn(25)),
		rtt: rtt, rng: rng,
		serverPort: bPort,
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
	default:
		st.emit(true, pkt.FlagSYN, 0)
		st.emit(false, pkt.FlagSYN|pkt.FlagACK, 0)
		st.emit(true, pkt.FlagACK, 0)
		body := n - 5
		// Per-flow transfer balance: how much of the data flows a→b.
		balance := 0.2 + 0.6*rng.Float64()
		burst := 0
		fromA := rng.Bool(balance)
		for i := 0; i < body; i++ {
			// Switch transfer direction between bursts of 1..4 segments.
			if burst <= 0 {
				fromA = rng.Bool(balance)
				burst = 1 + rng.Intn(4)
			}
			payload := uint16(1460)
			switch {
			case rng.Bool(0.15):
				payload = 0 // interleaved ack/have message
			case rng.Bool(0.3):
				payload = uint16(60 + rng.Intn(900)) // protocol chatter
			}
			flags := pkt.FlagACK
			if payload > 0 {
				flags |= pkt.FlagPSH
			}
			st.emit(fromA, flags, payload)
			burst--
		}
		st.emit(true, pkt.FlagFIN|pkt.FlagACK, 0)
		st.emit(false, pkt.FlagFIN|pkt.FlagACK, 0)
	}
	return st.out
}
