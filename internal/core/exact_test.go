package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/trace"
)

// jitteredWebTrace is webTrace(seed, flows) with every timestamp moved up by
// a seeded 0 to 999 ns, then sorted again: capture and API timestamps that
// are not whole µs, so nearly every gap a flow keeps is not one either.
func jitteredWebTrace(seed uint64, flows int) *trace.Trace {
	tr := webTrace(seed, flows)
	rng := rand.New(rand.NewPCG(seed, 0x6a177e5))
	for i := range tr.Packets {
		tr.Packets[i].Timestamp += time.Duration(rng.IntN(1000))
	}
	tr.Sort()
	return tr
}

// idleTrace is short and long flows that go idle mid-conversation, for 70 s
// (whole µs, past 2^26 µs) or for 2^40 ns (neither), now and then more than
// once, among flows that never do. The pauses fall before a data packet, an
// ack or the server's answer, so they land among the dependent gaps a short
// flow's RTT is the median of, and in long templates' gaps.
func idleTrace() *trace.Trace {
	tr := trace.New("idle")
	rng := rand.New(rand.NewPCG(67, 70))
	idles := []time.Duration{0, 70 * time.Second, 1 << 40}
	for c := 0; c < 240; c++ {
		n := 3 + rng.IntN(8) // short: 3 to 10 packets
		if c%4 == 0 {
			n = 60 + rng.IntN(140) // long: past ShortMax
		}
		ts := time.Duration(c) * 7 * time.Millisecond
		client, server := pkt.IPv4(0x0a000000+uint32(c)), pkt.Addr(20, 0, 0, byte(1+c%9))
		for i := 0; i < n; i++ {
			p := pkt.Packet{
				Timestamp: ts, Proto: pkt.ProtoTCP, Flags: pkt.FlagACK, TTL: 64,
				SrcIP: client, DstIP: server, SrcPort: uint16(1024 + c), DstPort: 80,
			}
			switch {
			case i == 0:
				p.Flags = pkt.FlagSYN
			case i == 1:
				p.Flags = pkt.FlagSYN | pkt.FlagACK
			case i == n-1 && c%3 == 0:
				p.Flags = pkt.FlagRST
			default:
				p.PayloadLen = uint16(rng.IntN(1461))
			}
			if i%2 == 1 {
				p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = p.DstIP, p.SrcIP, p.DstPort, p.SrcPort
			}
			tr.Append(p)
			ts += time.Duration(1+rng.IntN(40)) * time.Millisecond
			if rng.IntN(6) == 0 {
				ts += idles[c%len(idles)]
			}
		}
	}
	tr.Sort()
	return tr
}

// hashArchive returns the SHA-256 of a's encoding, indexed, and of its
// in-memory time-seq records, RTTs in ns.
func hashArchive(t *testing.T, a *Archive) (encoded, timeSeq string) {
	t.Helper()
	b := *a
	b.Index = IndexConfig{GroupSize: goldenGroupSize}
	var buf bytes.Buffer
	if _, err := b.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	h := sha256.New()
	for _, r := range a.TimeSeq {
		fmt.Fprintf(h, "%d %v %d %d %d\n", r.FirstTS, r.Long, r.Template, int64(r.RTT), r.Addr)
	}
	return hex.EncodeToString(sum[:]), hex.EncodeToString(h.Sum(nil))
}

// hashFlows writes every flow's first timestamp, f values, packed gaps
// (AppendVectorGaps) and RTT in ns to h.
func hashFlows(h hash.Hash, flows []*flow.Flow) {
	for _, f := range flows {
		fmt.Fprintf(h, "%d %x %x %d\n", f.FirstTimestamp(), f.Vector(flow.DefaultWeights), f.AppendVectorGaps(nil, flow.DefaultWeights), int64(f.EstimateRTT()))
	}
}

// TestExactGapsGolden pins what the compressor makes of gaps that are not
// whole µs, that reach 70 s or 2^40 ns, or that are negative, to SHA-256
// goldens: each trace's indexed archive bytes and in-memory time-seq records
// (RTT exact to the ns), and the f values, packed gaps and RTT of every flow
// collect-mode Assemble makes of a seeded shuffle of the trace, whose gaps go
// backwards as often as not. The goldens were taken before the packet word
// held its gap in whole µs, so they hold that change, and any later one, to
// the exact ns.
func TestExactGapsGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
		far  bool     // some RTT reaches 2^26 µs
		want []string // archive, time-seq and collect-mode flows
	}{
		{"jittered web", jitteredWebTrace(20050320, 600), false, []string{
			"3e78b27484e0ae324a91d07e86f671c1fe058c9feeb2a441960b90d342f9b8fb",
			"8b4f95cf7455f553f44cb0341deb7be2e7f10a2d0b8f017796366cdd589b9d9f",
			"097501351737f0c51db5cf3301cd920311454094f93601a707e710cd01e7fe7d",
		}},
		{"idle", idleTrace(), true, []string{
			"b7502fd4271a346d2f9d643d2a227c9e317b714b74f150b59e8c0a0bb7dd7bb3",
			"4c5d5ad98fbc1584364568339cc4e49d52b4ffe5d7671338dd834b819228a13e",
			"9a07cf8c06b400054e5eaae1e6ce9e7834772cb77a18f8ba7f6ade934baecbf3",
		}},
	} {
		a, err := Compress(tc.tr, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// The trace reaches what it pins: both template kinds, RTTs that are
		// not whole µs, and, for the idle one, RTTs of 2^26 µs or more.
		frac, far := 0, 0
		for _, r := range a.TimeSeq {
			if r.RTT%time.Microsecond != 0 {
				frac++
			}
			if r.RTT >= (1<<26-1)*time.Microsecond {
				far++
			}
		}
		if len(a.ShortTemplates) == 0 || len(a.LongTemplates) == 0 || frac == 0 || (far > 0) != tc.far {
			t.Fatalf("%s: %d short and %d long templates, %d RTTs not whole µs and %d of 2^26 µs or more", tc.name, len(a.ShortTemplates), len(a.LongTemplates), frac, far)
		}
		encoded, timeSeq := hashArchive(t, a)
		shuffled := slices.Clone(tc.tr.Packets)
		rand.New(rand.NewPCG(1, 2)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		h := sha256.New()
		hashFlows(h, flow.Assemble(shuffled))
		for i, got := range []string{encoded, timeSeq, hex.EncodeToString(h.Sum(nil))} {
			if got != tc.want[i] {
				t.Errorf("%s: %s hashes to %s, want %s", tc.name, []string{"archive", "time-seq", "unsorted collect-mode flows"}[i], got, tc.want[i])
			}
		}
	}
}
