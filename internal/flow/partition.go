package flow

import "flowzip/internal/pkt"

// MaxShards bounds the shard count. Shard ids are byte-sized so a shard map
// of a multi-million-packet trace stays one byte per packet.
const MaxShards = 256

// ShardOf returns the shard in [0, shards) p's flow belongs to — the hash of
// its canonical 5-tuple under seed, reduced modulo the shard count. Both
// directions of a conversation share a canonical key, so every packet of a
// flow lands in the same shard and each shard can be assembled by an
// independent Table. Shard choice never reaches an archive: any split merges
// to the same bytes. So a caller draws a fresh seed per run, and keys chosen
// to share a shard under one seed (all the work on one worker) spread under
// the next. shards must be at least 1.
func ShardOf(p *pkt.Packet, shards int, seed uint64) int {
	k := p.Key()
	return int(seededHash(&k, seed) % uint64(shards))
}
