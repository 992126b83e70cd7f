package core

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/trace"
	"flowzip/internal/tsh"
)

// naiveCompress is an independent reference implementation of the serial
// pipeline: the same flow.Table assembly, but template matching is a plain
// linear first-fit scan with the full Distance — no memo, no sum/signature
// pruning, no early-exit distance, no scratch reuse, and the templates
// renumbered by first use through maps. The byte-identity test below pins the
// optimized Compress against it, so none of the fast-path machinery can change
// a single archive byte.
func naiveCompress(tr *trace.Trace, opts Options) (*Archive, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	limit := opts.limit()
	type tplBucket struct {
		vecs []flow.Vector
		ids  []int
	}
	buckets := map[int]*tplBucket{}
	var shorts []flow.Vector
	var long []LongTemplate
	var addrs []pkt.IPv4
	addrIdx := map[pkt.IPv4]uint32{}
	var recs []TimeSeqRecord
	var packets int64

	table := flow.NewTable(func(f *flow.Flow) {
		v := f.Vector(opts.Weights)
		rec := TimeSeqRecord{FirstTS: f.FirstTimestamp()}
		idx, ok := addrIdx[f.ServerIP()]
		if !ok {
			idx = uint32(len(addrs))
			addrs = append(addrs, f.ServerIP())
			addrIdx[f.ServerIP()] = idx
		}
		rec.Addr = idx
		if f.Len() <= opts.ShortMax {
			lim := limit(len(v))
			b := buckets[len(v)]
			matched := -1
			if b != nil {
				for i, t := range b.vecs {
					if flow.Distance(t, v) < lim {
						matched = b.ids[i]
						break
					}
				}
			}
			if matched < 0 {
				matched = len(shorts)
				cp := append(flow.Vector(nil), v...)
				shorts = append(shorts, cp)
				if b == nil {
					b = &tplBucket{}
					buckets[len(v)] = b
				}
				b.vecs = append(b.vecs, cp)
				b.ids = append(b.ids, matched)
			}
			rec.Template = uint32(matched)
			rec.RTT = f.EstimateRTT()
		} else {
			rec.Long = true
			rec.Template = uint32(len(long))
			long = append(long, LongTemplate{
				F:    append(flow.Vector(nil), v...),
				Gaps: f.InterPacketTimes(),
			})
		}
		recs = append(recs, rec)
	})
	for i := range tr.Packets {
		packets++
		table.Add(&tr.Packets[i])
	}
	table.Flush()
	slices.SortStableFunc(recs, func(a, b TimeSeqRecord) int { return cmp.Compare(a.FirstTS, b.FirstTS) })
	// Every template is named by a record; each kind is numbered in the order
	// the sorted records first name them.
	var byUse [2]map[uint32]uint32
	var usedShorts []flow.Vector
	var usedLong []LongTemplate
	for i := range recs {
		r := &recs[i]
		k := 0
		if r.Long {
			k = 1
		}
		if byUse[k] == nil {
			byUse[k] = map[uint32]uint32{}
		}
		id, ok := byUse[k][r.Template]
		switch {
		case ok:
		case r.Long:
			id, usedLong = uint32(len(usedLong)), append(usedLong, long[r.Template])
		default:
			id, usedShorts = uint32(len(usedShorts)), append(usedShorts, shorts[r.Template])
		}
		byUse[k][r.Template] = id
		r.Template = id
	}
	return &Archive{
		ShortTemplates: usedShorts,
		LongTemplates:  usedLong,
		Addresses:      addrs,
		TimeSeq:        recs,
		Opts:           opts,
		SourcePackets:  packets,
		SourceTSHBytes: tsh.Size(int(packets)),
	}, nil
}

// tieTrace is a µs-quantized flood in which nothing orders the time-seq
// dataset but the tie rules: SYNs arrive in runs of 2 to 50 flows sharing one
// timestamp, a third of the flows are later reset — a random half of those
// still waiting after every run, so in an order unlike the one they opened in
// and in the middle of later runs — and the rest stay open for the flush.
// Every flow has its own server, so two records of one run never encode alike.
func tieTrace(seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New("ties")
	var waiting []pkt.Packet // the RSTs of flows still to be closed
	reset := func(n int) {
		rng.Shuffle(len(waiting), func(i, j int) { waiting[i], waiting[j] = waiting[j], waiting[i] })
		for _, p := range waiting[:n] {
			p.Timestamp = tr.Packets[tr.Len()-1].Timestamp + time.Duration(rng.Intn(2))*time.Microsecond
			tr.Append(p)
		}
		waiting = waiting[n:]
	}
	for conv, run := uint32(0), 0; run < 60; run++ {
		ts := time.Duration(0)
		if run > 0 {
			ts = tr.Packets[tr.Len()-1].Timestamp + time.Duration(rng.Intn(3))*time.Microsecond
		}
		for n := 2 + rng.Intn(49); n > 0; n, conv = n-1, conv+1 {
			syn := pkt.Packet{
				Timestamp: ts, Proto: pkt.ProtoTCP, Flags: pkt.FlagSYN, TTL: 64,
				SrcIP: pkt.IPv4(0x0a000000 + conv), DstIP: pkt.IPv4(0x14000000 + conv), SrcPort: uint16(1024 + conv), DstPort: 80,
			}
			tr.Append(syn)
			if conv%3 == 0 {
				rst := syn
				rst.SrcIP, rst.DstIP, rst.SrcPort, rst.DstPort, rst.Flags = syn.DstIP, syn.SrcIP, syn.DstPort, syn.SrcPort, pkt.FlagRST
				waiting = append(waiting, rst)
			}
		}
		reset(len(waiting) / 2)
	}
	reset(len(waiting))
	return tr
}

// TestCompressMatchesNaiveReference is the acceptance property of the match
// fast path and of the order-by-construction finish: over every workload the
// repo generates, Compress and the sharded merge at 2 and 4 workers encode to
// exactly the bytes of the naive reference pipeline, whose dataset order is
// one SortStableFunc over the finalize sequence.
func TestCompressMatchesNaiveReference(t *testing.T) {
	// scan: 20 k flows to as many servers, so the address table doubles
	// several times and the reference's map-and-append numbering is held
	// against the list read back off its words.
	scan, _, _ := budgetTraces()
	ties := tieTrace(24)
	if n := len(flow.Assemble(ties.Packets)); n < 3*128 {
		t.Fatalf("ties: %d flows, want at least 128 closed among three times as many", n)
	}
	traces := map[string]*trace.Trace{
		"web":     webTrace(21, 900),
		"fractal": fractalTrace(22, 20000),
		"p2p":     p2pTrace(23),
		"scan":    scan,
		"ties":    ties,
	}
	for name, tr := range traces {
		for _, mod := range []func(*Options){
			nil,
			func(o *Options) { o.LimitPct = 0 },
			func(o *Options) { o.LimitPct = 10 },
			func(o *Options) { o.ShortMax = 5 },
		} {
			opts := DefaultOptions()
			if mod != nil {
				mod(&opts)
			}
			want, err := naiveCompress(tr, opts)
			if err != nil {
				t.Fatal(err)
			}
			wantBytes := encodeBytes(t, want)
			for _, workers := range []int{1, 2, 4} {
				p, err := NewPipeline(opts, PipelineConfig{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				got, err := p.CompressTrace(tr)
				if err != nil {
					t.Fatal(err)
				}
				if gotFlows, wantFlows := got.Flows(), want.Flows(); gotFlows != wantFlows {
					t.Errorf("%s %+v, %d workers: %d flows, naive %d", name, opts, workers, gotFlows, wantFlows)
				}
				if !bytes.Equal(wantBytes, encodeBytes(t, got)) {
					t.Errorf("%s opts %+v, %d workers: optimized archive differs from naive reference", name, opts, workers)
				}
			}
		}
	}
}

// TestCompressMatchesNaiveAdversarial repeats the pin over a trace whose
// short flows are crafted to collide on the prune keys: many same-length
// flows with permuted payload patterns, so vector sums and signatures agree
// while the vectors differ.
func TestCompressMatchesNaiveAdversarial(t *testing.T) {
	tr := trace.New("adversarial")
	payloads := [][]int{
		{0, 600, 0, 600, 0},
		{600, 0, 600, 0, 0},
		{0, 0, 600, 600, 0},
		{600, 600, 0, 0, 0},
		{0, 600, 600, 0, 0},
	}
	ts := int64(0)
	for i := 0; i < 400; i++ {
		pat := payloads[i%len(payloads)]
		client := pkt.Addr(10, byte(i>>8), byte(i), 1)
		server := pkt.Addr(20, 0, 0, byte(i%7))
		for j, pl := range pat {
			ts += 1000
			p := pkt.Packet{
				Timestamp:  time.Duration(ts) * time.Microsecond,
				Proto:      pkt.ProtoTCP,
				TTL:        64,
				Flags:      pkt.FlagACK,
				PayloadLen: uint16(pl),
			}
			if j == 0 {
				p.Flags = pkt.FlagSYN
			}
			if j == len(pat)-1 {
				p.Flags = pkt.FlagFIN | pkt.FlagACK
			}
			if j%2 == 0 {
				p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = client, server, uint16(2000+i), 80
			} else {
				p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = server, client, 80, uint16(2000+i)
			}
			tr.Append(p)
		}
	}
	want, err := naiveCompress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBytes(t, want), encodeBytes(t, got)) {
		t.Error("adversarial trace: optimized archive differs from naive reference")
	}
}
