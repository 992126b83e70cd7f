package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"flowzip/internal/cluster"
	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/trace"
)

// TestCompressParallelSharedByteIdentical is the tentpole acceptance
// property in its strongest form: with the shared template store on, the
// merged archive must encode to exactly the serial bytes at every worker
// count.
func TestCompressParallelSharedByteIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		tr := webTrace(seed, 800)
		serial, err := Compress(tr, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want := encodeBytes(t, serial)
		for _, workers := range []int{1, 2, 4, 8} {
			var st ParallelStats
			par, err := pipeTrace(tr, DefaultOptions(),
				PipelineConfig{Workers: workers, SharedTemplates: true, Stats: &st})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if !bytes.Equal(want, encodeBytes(t, par)) {
				t.Errorf("seed %d workers %d: shared archive differs from serial", seed, workers)
			}
			if st.Workers != workers {
				t.Errorf("seed %d workers %d: stats report %d workers", seed, workers, st.Workers)
			}
		}
	}
}

// TestCompressStreamSharedByteIdentical covers the streaming pipeline,
// including the single-worker case, where SharedTemplates is a no-op.
func TestCompressStreamSharedByteIdentical(t *testing.T) {
	tr := webTrace(3, 800)
	serial, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := encodeBytes(t, serial)
	for _, workers := range []int{1, 2, 4, 8} {
		var st ParallelStats
		arch, err := pipeStream(trace.Batches(tr, 512), DefaultOptions(),
			PipelineConfig{Workers: workers, SharedTemplates: true, Stats: &st})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !bytes.Equal(want, encodeBytes(t, arch)) {
			t.Errorf("workers %d: shared streaming archive differs from serial", workers)
		}
		// One worker is the serial Compressor: there is no snapshot to consult.
		if (st.SharedLookups == 0) != (workers == 1) {
			t.Errorf("workers %d: %d shared lookups recorded", workers, st.SharedLookups)
		}
	}
}

// TestSharedReducesMergeMatchCalls pins the point of the whole feature: on a
// template-heavy trace the merge replay must Match strictly less with the
// shared store than without it, and the split of short flows must add up.
func TestSharedReducesMergeMatchCalls(t *testing.T) {
	tr := webTrace(5, 1500)
	var plain, shared ParallelStats
	if _, err := pipeTrace(tr, DefaultOptions(),
		PipelineConfig{Workers: 4, Stats: &plain}); err != nil {
		t.Fatal(err)
	}
	if _, err := pipeTrace(tr, DefaultOptions(),
		PipelineConfig{Workers: 4, SharedTemplates: true, Stats: &shared}); err != nil {
		t.Fatal(err)
	}
	if plain.SharedFlows != 0 || plain.SharedLookups != 0 {
		t.Fatalf("plain run recorded shared activity: %+v", plain)
	}
	if shared.SharedFlows+shared.OverflowFlows != plain.OverflowFlows {
		t.Errorf("short-flow split %d+%d does not cover the %d short flows",
			shared.SharedFlows, shared.OverflowFlows, plain.OverflowFlows)
	}
	// The Web workload repeats a small set of flow shapes constantly, so the
	// snapshot must absorb a meaningful share of the Match traffic. The
	// exact count is scheduling-dependent (publication timing), but strict
	// improvement is not.
	if shared.SharedFlows == 0 {
		t.Fatal("no flows resolved against the shared snapshot on a template-heavy trace")
	}
	if shared.MergeMatchCalls >= plain.MergeMatchCalls {
		t.Errorf("merge Match calls did not drop: shared %d, plain %d",
			shared.MergeMatchCalls, plain.MergeMatchCalls)
	}
}

// TestSharedStreamSingleWorkerDeterministic: with one shard the
// lookup/propose sequence is single-threaded, so snapshot behavior is fully
// deterministic — hits must appear once an epoch publishes. A one-worker
// Pipeline is the serial Compressor and never builds a shared store, so the
// one-shard run goes through the shard seam, which does.
func TestSharedStreamSingleWorkerDeterministic(t *testing.T) {
	tr := webTrace(7, 1200)
	shared := cluster.NewSharedStore()
	r, err := CompressShardSourceShared(trace.Batches(tr, 256), DefaultOptions(), 0, 1, shared)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := MergeShardResultsShared([]*ShardResult{r}, shared)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBytes(t, serial), encodeBytes(t, arch)) {
		t.Error("single-shard shared stream differs from serial")
	}
	hits := 0
	for i := range r.Flows {
		if r.Flows[i].Shared {
			hits++
		}
	}
	if epochs := shared.Stats().Epochs; hits == 0 || epochs == 0 {
		t.Errorf("deterministic single-shard run published %d epochs with %d hits, want both > 0", epochs, hits)
	}
}

// adversarialTrace builds an overflow-heavy input: flows of equal packet
// count carry their index encoded in binary across the payload size classes
// (empty vs large), so short-flow vectors are pairwise distinct (up to the
// few shortest flows whose middle packets cannot hold all the bits) and the
// shared snapshot almost never resolves anything — every flow takes the
// private-overflow path.
func adversarialTrace(conversations int) *trace.Trace {
	const lengths = 46 // short-flow packet counts 3..48, all under ShortMax
	tr := trace.New("adversarial")
	ts := time.Duration(0)
	for i := 0; i < conversations; i++ {
		client := pkt.IPv4(0x0A000001 + uint32(i))
		server := pkt.IPv4(0xC0A80001 + uint32(i%7))
		sport, dport := uint16(10000+i), uint16(80)
		n := 3 + i%lengths
		j := i / lengths // disambiguates flows of equal length, bit by bit
		for p := 0; p < n; p++ {
			var flags pkt.TCPFlags
			switch p {
			case 0:
				flags = pkt.FlagSYN
			case n - 1:
				flags = pkt.FlagRST
			default:
				flags = pkt.FlagACK
			}
			var size uint16
			if p > 0 && p < n-1 && (j>>(p-1))&1 == 1 {
				size = 900 // SizeClassLarge; bit unset stays SizeClassEmpty
			}
			tr.Packets = append(tr.Packets, pkt.Packet{
				Timestamp: ts,
				SrcIP:     client, DstIP: server,
				SrcPort: sport, DstPort: dport, Proto: 6,
				Flags: flags, PayloadLen: size,
			})
			ts += 37 * time.Microsecond
		}
	}
	return tr
}

// TestSharedOverflowAdversarial runs the snapshot-hostile trace: the store
// must degrade to pure overflow without hurting correctness.
func TestSharedOverflowAdversarial(t *testing.T) {
	tr := adversarialTrace(400)
	if !tr.IsSorted() {
		t.Fatal("adversarial trace must be generated sorted")
	}
	serial, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := encodeBytes(t, serial)
	for _, workers := range []int{2, 4, 8} {
		var st ParallelStats
		par, err := pipeTrace(tr, DefaultOptions(),
			PipelineConfig{Workers: workers, SharedTemplates: true, Stats: &st})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, encodeBytes(t, par)) {
			t.Errorf("workers %d: adversarial shared archive differs from serial", workers)
		}
		if st.OverflowFlows == 0 {
			t.Errorf("workers %d: adversarial trace produced no overflow flows", workers)
		}
		// The shortest flows cannot encode all their index bits, so a
		// handful of exact duplicates (and hence snapshot hits) remain;
		// what must hold is that overflow dominates overwhelmingly.
		if st.SharedFlows > st.OverflowFlows/10 {
			t.Errorf("workers %d: %d shared vs %d overflow flows on an all-distinct trace",
				workers, st.SharedFlows, st.OverflowFlows)
		}
	}
}

// TestCompressParallelWorkerBounds covers the boundary worker counts the
// library accepts (the CLI validates the same range); one past the bound is
// rejected, see TestNewPipelineValidation.
func TestCompressParallelWorkerBounds(t *testing.T) {
	tr := webTrace(9, 300)
	serial, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := encodeBytes(t, serial)
	for _, tc := range []struct {
		workers     int
		wantWorkers int
	}{
		{0, DefaultWorkers()},
		{1, 1},
		{flow.MaxShards, flow.MaxShards},
	} {
		var st ParallelStats
		arch, err := pipeTrace(tr, DefaultOptions(),
			PipelineConfig{Workers: tc.workers, Stats: &st})
		if err != nil {
			t.Fatalf("workers %d: %v", tc.workers, err)
		}
		if st.Workers != tc.wantWorkers {
			t.Errorf("workers %d: stats report %d, want %d", tc.workers, st.Workers, tc.wantWorkers)
		}
		if !bytes.Equal(want, encodeBytes(t, arch)) {
			t.Errorf("workers %d: archive differs from serial", tc.workers)
		}
	}
}

// TestTooManyPacketsError pins the typed int32 bound error. A real 2^31
// packet trace cannot be materialized in a test, so the check itself is
// exercised directly at the boundary.
func TestTooManyPacketsError(t *testing.T) {
	if err := checkParallelPackets(int64(maxParallelPackets)); err != nil {
		t.Fatalf("bound itself rejected: %v", err)
	}
	err := checkParallelPackets(int64(maxParallelPackets) + 1)
	if err == nil {
		t.Fatal("over-bound packet count accepted")
	}
	var tooMany *TooManyPacketsError
	if !errors.As(err, &tooMany) {
		t.Fatalf("error %T is not a *TooManyPacketsError", err)
	}
	if tooMany.Packets != int64(maxParallelPackets)+1 {
		t.Errorf("error records %d packets, want %d", tooMany.Packets, int64(maxParallelPackets)+1)
	}
}

// TestMergeSharedValidation covers the merge-side rejection of inconsistent
// shared references: missing store, foreign store, dangling global id.
func TestMergeSharedValidation(t *testing.T) {
	tr := webTrace(11, 200)
	shared := cluster.NewSharedStoreEpoch(1)
	src := func() PacketSource { return trace.Batches(tr, 0) }
	results := make([]*ShardResult, 2)
	for i := range results {
		r, err := CompressShardSourceShared(src(), DefaultOptions(), i, 2, shared)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
	}

	// The matching store merges to the serial bytes.
	arch, err := MergeShardResultsShared(results, shared)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBytes(t, serial), encodeBytes(t, arch)) {
		t.Error("shared shard-source merge differs from serial")
	}

	// No store at all.
	if _, err := MergeShardResults(results); err == nil {
		t.Error("shared results merged without a store")
	}
	// A different store instance.
	if _, err := MergeShardResultsShared(results, cluster.NewSharedStore()); err == nil {
		t.Error("shared results merged against a foreign store")
	}
	// A dangling global id.
	bad := *results[0]
	bad.Flows = append([]ShardFlow(nil), bad.Flows...)
	found := false
	for i := range bad.Flows {
		if !bad.Flows[i].Long {
			bad.Flows[i].Shared = true
			bad.Flows[i].Template = int32(shared.Len()) + 100
			found = true
			break
		}
	}
	if !found {
		t.Fatal("trace produced no short flows to corrupt")
	}
	if _, err := MergeShardResultsShared([]*ShardResult{&bad, results[1]}, shared); err == nil {
		t.Error("dangling shared template id merged")
	}
	// A negative plain (overflow) template id must be rejected by
	// validation, not panic in the replay.
	neg := *results[0]
	neg.Flows = append([]ShardFlow(nil), results[0].Flows...)
	for i := range neg.Flows {
		if !neg.Flows[i].Long && !neg.Flows[i].Shared {
			neg.Flows[i].Template = -1
			break
		}
	}
	if _, err := MergeShardResultsShared([]*ShardResult{&neg, results[1]}, shared); err == nil {
		t.Error("negative plain template id merged")
	}
}
