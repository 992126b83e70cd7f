package core

import (
	"bytes"
	"testing"

	"flowzip/internal/flowgen"
	"flowzip/internal/trace"
)

// shardResults compresses every partition of tr independently through the
// exported seam, as distributed workers would.
func shardResults(t *testing.T, tr *trace.Trace, opts Options, count int) []*ShardResult {
	t.Helper()
	results := make([]*ShardResult, count)
	for i := range results {
		r, err := CompressShardSource(trace.Batches(tr, 100), opts, i, count)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, count, err)
		}
		results[i] = r
	}
	return results
}

// TestShardMergeByteIdentical is the distributed acceptance property at the
// core seam: splitting a stream into independently-compressed partitions and
// merging the ShardResults must encode to exactly the serial archive, on
// every workload the repo generates.
func TestShardMergeByteIdentical(t *testing.T) {
	traces := map[string]*trace.Trace{
		"web":     webTrace(3, 600),
		"fractal": fractalTrace(4, 15000),
		"p2p":     p2pTrace(5),
	}
	for name, tr := range traces {
		serial, err := Compress(tr, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want := encodeBytes(t, serial)
		for _, count := range []int{1, 2, 4, 8} {
			results := shardResults(t, tr, DefaultOptions(), count)
			merged, err := MergeShardResults(results)
			if err != nil {
				t.Fatalf("%s shards %d: %v", name, count, err)
			}
			if got := encodeBytes(t, merged); !bytes.Equal(want, got) {
				t.Errorf("%s shards %d: merged archive differs from serial (%d vs %d bytes)",
					name, count, len(got), len(want))
			}
		}
	}
}

func fractalTrace(seed uint64, packets int) *trace.Trace {
	cfg := flowgen.DefaultFractalConfig()
	cfg.Seed = seed
	cfg.Packets = packets
	tr := flowgen.Fractal(cfg)
	if !tr.IsSorted() {
		tr.Sort()
	}
	return tr
}

func p2pTrace(seed uint64) *trace.Trace {
	cfg := flowgen.DefaultP2PConfig()
	cfg.Seed = seed
	tr := flowgen.P2P(cfg)
	if !tr.IsSorted() {
		tr.Sort()
	}
	return tr
}

// TestShardMergeShuffledOrder checks that merge order comes from the Index
// fields, not the slice order.
func TestShardMergeShuffledOrder(t *testing.T) {
	tr := webTrace(9, 400)
	serial, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	results := shardResults(t, tr, DefaultOptions(), 4)
	shuffled := []*ShardResult{results[2], results[0], results[3], results[1]}
	merged, err := MergeShardResults(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBytes(t, serial), encodeBytes(t, merged)) {
		t.Error("shuffled shard order: merged archive differs from serial")
	}
}

// TestMergeShardResultsValidation exercises every consistency check: the
// merge must reject incomplete, duplicated or mismatched shard sets with an
// error instead of producing a silently wrong archive.
func TestMergeShardResultsValidation(t *testing.T) {
	tr := webTrace(1, 300)
	results := shardResults(t, tr, DefaultOptions(), 3)

	cases := map[string]func() []*ShardResult{
		"empty":   func() []*ShardResult { return nil },
		"missing": func() []*ShardResult { return results[:2] },
		"duplicate": func() []*ShardResult {
			return []*ShardResult{results[0], results[1], results[1]}
		},
		"foreign count": func() []*ShardResult {
			other := *results[2]
			other.Count = 4
			return []*ShardResult{results[0], results[1], &other}
		},
		"index out of range": func() []*ShardResult {
			other := *results[2]
			other.Index = 7
			return []*ShardResult{results[0], results[1], &other}
		},
		"different stream": func() []*ShardResult {
			other := *results[2]
			other.Packets++
			return []*ShardResult{results[0], results[1], &other}
		},
		"different options": func() []*ShardResult {
			other := *results[2]
			other.Opts.LimitPct = 9
			return []*ShardResult{results[0], results[1], &other}
		},
		"dangling template": func() []*ShardResult {
			other := *results[2]
			other.Flows = append([]ShardFlow(nil), other.Flows...)
			for i := range other.Flows {
				if !other.Flows[i].Long {
					other.Flows[i].Template = int32(len(other.Templates))
					break
				}
			}
			return []*ShardResult{results[0], results[1], &other}
		},
		"negative template": func() []*ShardResult {
			other := *results[2]
			other.Flows = append([]ShardFlow(nil), other.Flows...)
			for i := range other.Flows {
				if !other.Flows[i].Long {
					other.Flows[i].Template = -1
					break
				}
			}
			return []*ShardResult{results[0], results[1], &other}
		},
		"foreign shard stamp": func() []*ShardResult {
			other := *results[2]
			other.Flows = append([]ShardFlow(nil), other.Flows...)
			if len(other.Flows) > 0 {
				other.Flows[0].Shard = 1
			}
			return []*ShardResult{results[0], results[1], &other}
		},
	}
	for name, build := range cases {
		if _, err := MergeShardResults(build()); err == nil {
			t.Errorf("%s: merge accepted an inconsistent shard set", name)
		}
	}
}

// TestCompressShardSourceValidation covers the argument error paths.
func TestCompressShardSourceValidation(t *testing.T) {
	tr := webTrace(2, 50)
	src := func() PacketSource { return trace.Batches(tr, 0) }
	if _, err := CompressShardSource(src(), DefaultOptions(), 0, 0); err == nil {
		t.Error("zero shard count accepted")
	}
	if _, err := CompressShardSource(src(), DefaultOptions(), 2, 2); err == nil {
		t.Error("out-of-range shard index accepted")
	}
	bad := DefaultOptions()
	bad.ShortMax = 0
	if _, err := CompressShardSource(src(), bad, 0, 2); err == nil {
		t.Error("invalid options accepted")
	}
}

// TestOptionsFingerprint pins the fingerprint's sensitivity: every field
// change must move it, and equal options must agree.
func TestOptionsFingerprint(t *testing.T) {
	base := DefaultOptions()
	if base.Fingerprint() != DefaultOptions().Fingerprint() {
		t.Fatal("equal options fingerprint differently")
	}
	mods := []func(*Options){
		func(o *Options) { o.Weights.Flag++ },
		func(o *Options) { o.Weights.Dep++ },
		func(o *Options) { o.Weights.Size++ },
		func(o *Options) { o.ShortMax++ },
		func(o *Options) { o.LimitPct += 0.25 },
		func(o *Options) { o.NonDepGap++ },
		func(o *Options) { o.SmallPayload++ },
		func(o *Options) { o.LargePayload++ },
		func(o *Options) { o.Seed++ },
	}
	for i, mod := range mods {
		o := DefaultOptions()
		mod(&o)
		if o.Fingerprint() == base.Fingerprint() {
			t.Errorf("mod %d: fingerprint did not change", i)
		}
	}
}
