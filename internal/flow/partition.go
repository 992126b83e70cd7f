package flow

import (
	"fmt"
	"sync"

	"flowzip/internal/pkt"
)

// MaxShards bounds Partition's fan-out. Shard ids are byte-sized so a
// partition of a multi-million-packet trace stays one byte per packet.
const MaxShards = 256

// ShardOf returns which of shards buckets p's flow belongs to — the hash of
// its canonical 5-tuple under seed, reduced modulo the shard count — for
// callers that route packets one at a time instead of partitioning a slice.
// Shard choice never reaches an archive: any partition merges to the same
// bytes. So a caller draws a fresh seed per run, and keys chosen to share a
// shard under one seed (all the work on one worker) spread under the next.
// shards must be at least 1.
func ShardOf(p *pkt.Packet, shards int, seed uint64) int {
	k := p.Key()
	return int(seededHash(&k, seed) % uint64(shards))
}

// Partition assigns every packet to one of shards buckets by ShardOf under
// seed. Both directions of a conversation share a canonical key, so every
// packet of a flow lands in the same bucket and each bucket can be assembled
// by an independent Table. The scan is split across parallelism goroutines;
// the result is deterministic for a seed regardless of parallelism.
//
// shards must be in [1, MaxShards]; Partition panics otherwise (a programmer
// error, not an input condition).
func Partition(packets []pkt.Packet, shards, parallelism int, seed uint64) []uint8 {
	if shards < 1 || shards > MaxShards {
		panic(fmt.Sprintf("flow: Partition shards %d outside [1,%d]", shards, MaxShards))
	}
	n := len(packets)
	ids := make([]uint8, n)
	if shards == 1 || n == 0 {
		return ids
	}
	if parallelism < 1 {
		parallelism = 1
	}
	chunk := (n + parallelism - 1) / parallelism
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				ids[i] = uint8(ShardOf(&packets[i], shards, seed))
			}
		}(lo, hi)
	}
	wg.Wait()
	return ids
}
