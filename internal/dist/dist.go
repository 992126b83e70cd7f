// Package dist scales the flow-clustering compressor across machines. It
// builds on the exported shard seam of internal/core: workers compress
// disjoint 5-tuple partitions of the same packet stream into serializable
// shard state (the ".fzshard" wire format), and a coordinator validates the
// complete shard set and replays the deterministic merge — producing an
// archive byte-for-byte identical to the serial compressor's, no matter how
// many machines the shards crossed.
//
// Two transports share the format:
//
//   - Files: core.CompressShardSource + EncodeShardState write .fzshard
//     files (the `flowzip shard` verb); MergeShardFiles folds any complete
//     set back into an archive (`flowzip merge`).
//   - TCP: a Coordinator accepts Workers, pushes partition assignments,
//     collects shard-state blobs, re-queues the shards of dead or failing
//     workers and merges on completion (`flowzip coordinate` and
//     `flowzip worker`).
//
// Every blob carries a versioned header — magic, format version, shard
// index/count, partition seed and an options fingerprint — so shards from
// mismatched runs, codec parameters or partition schemes are rejected
// instead of silently merged into a corrupt archive.
package dist

import (
	"fmt"
	"sync"

	"flowzip/internal/core"
)

// CompressDistributed runs the full distributed pipeline on one machine: a
// loopback coordinator plus workers concurrent workers, each pulling a
// fresh stream from newSource. It exists to prove the pipeline end to end
// (and to use every core on traces where Pipeline.CompressTrace's
// shared-memory path is not wanted); the archive is byte-for-byte identical to serial
// Compress. shards is the partition count; workers <= 0 uses one worker per
// shard.
func CompressDistributed(newSource func() (core.PacketSource, error), opts core.Options, shards, workers int) (*core.Archive, error) {
	if workers <= 0 || workers > shards {
		workers = shards
	}
	coord, err := NewCoordinator(CoordinatorConfig{Shards: shards, Opts: opts})
	if err != nil {
		return nil, err
	}
	addr := coord.Addr().String()

	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := Dial(addr, WorkerConfig{Source: newSource})
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = w.Run()
		}(i)
	}
	// If every worker dies before the run completes (e.g. all sources
	// fail), nobody is left to finish the remaining shards — close the
	// coordinator so Wait reports the failure instead of blocking forever.
	// On success this Close races harmlessly with Wait's own shutdown.
	go func() {
		wg.Wait()
		coord.Close()
	}()

	arch, waitErr := coord.Wait()
	wg.Wait()
	if waitErr != nil {
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("%w (worker: %v)", waitErr, err)
			}
		}
		return nil, waitErr
	}
	return arch, nil
}
