package core

import (
	"bytes"
	"cmp"
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
// pruning, no early-exit distance, no scratch reuse. The byte-identity test
// below pins the optimized Compress against it, so none of the fast-path
// machinery can change a single archive byte.
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
	return &Archive{
		ShortTemplates: shorts,
		LongTemplates:  long,
		Addresses:      addrs,
		TimeSeq:        recs,
		Opts:           opts,
		SourcePackets:  packets,
		SourceTSHBytes: tsh.Size(int(packets)),
	}, nil
}

// TestCompressMatchesNaiveReference is the acceptance property of the match
// fast path: over every workload the repo generates, the optimized serial
// Compress encodes to exactly the bytes of the naive reference pipeline.
func TestCompressMatchesNaiveReference(t *testing.T) {
	// scan: 20 k flows to as many servers, so the address table doubles
	// several times and the reference's map-and-append numbering is held
	// against the list read back off its words.
	scan, _, _ := budgetTraces()
	traces := map[string]*trace.Trace{
		"web":     webTrace(21, 900),
		"fractal": fractalTrace(22, 20000),
		"p2p":     p2pTrace(23),
		"scan":    scan,
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
			got, err := Compress(tr, opts)
			if err != nil {
				t.Fatal(err)
			}
			if gotStats, wantFlows := got.Flows(), want.Flows(); gotStats != wantFlows {
				t.Errorf("%s %+v: %d flows, naive %d", name, opts, gotStats, wantFlows)
			}
			if !bytes.Equal(encodeBytes(t, want), encodeBytes(t, got)) {
				t.Errorf("%s opts %+v: optimized archive differs from naive reference", name, opts)
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
