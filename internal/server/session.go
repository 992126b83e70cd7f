package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"flowzip/internal/core"
	"flowzip/internal/dist"
	"flowzip/internal/obs"
	"flowzip/internal/pkt"
)

// Why a segment ended, recorded in the .fzmeta sidecar.
const (
	// ReasonClose: the client finished the stream cleanly.
	ReasonClose = "close"
	// ReasonRotateSize: the Rotation.MaxPackets boundary cut the segment.
	ReasonRotateSize = "rotate-size"
	// ReasonRotateAge: the Rotation.MaxAge boundary cut the segment.
	ReasonRotateAge = "rotate-age"
	// ReasonDrain: graceful shutdown finalized the session early.
	ReasonDrain = "drain"
	// ReasonDisconnect: the client went away mid-stream; everything acked up
	// to the disconnect is still flushed.
	ReasonDisconnect = "disconnect"

	// reasonError marks a pipeline or quota failure; no sidecar carries it
	// (the failing segment is not written), it only routes the handler.
	reasonError = "error"
)

// MetaSuffix is the extension of the sidecar file written next to every
// archive segment.
const MetaSuffix = ".fzmeta"

// SegmentMeta is the JSON sidecar written next to each archive segment:
// enough for `flowzip inspect` and offline tooling to attribute a plain
// archive file to its tenant, session and position in the rotation sequence.
// The segment itself is an ordinary flowzip archive — DecodeArchive reads it
// unchanged.
type SegmentMeta struct {
	Tenant  string `json:"tenant"`
	Session uint64 `json:"session"`
	Seq     int    `json:"seq"`
	Packets int64  `json:"packets"`
	Flows   int    `json:"flows"`
	Bytes   int64  `json:"bytes"`
	FirstTS int64  `json:"first_ts_ns"`
	LastTS  int64  `json:"last_ts_ns"`
	Reason  string `json:"reason"`
}

// ReadSegmentMeta loads a sidecar. path may be the sidecar itself or the
// archive segment it annotates.
func ReadSegmentMeta(path string) (*SegmentMeta, error) {
	if filepath.Ext(path) != MetaSuffix {
		path += MetaSuffix
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m SegmentMeta
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("server: segment meta %s: %w", path, err)
	}
	return &m, nil
}

// session is one admitted capture stream: the connection handler feeds
// batches, the runSession goroutine compresses them into rotated segments.
type session struct {
	id     uint64
	tenant string
	window int // credit window advertised in openok; batches channel buffer
	pipe   *core.Pipeline

	batches chan []pkt.Packet
	src     *segmentSource

	// endReason is set by the handler before it closes batches; the channel
	// close orders it before runSession's read.
	endReason string

	done   chan struct{} // closed when runSession exits
	failed chan struct{} // closed when pipeErr is set, before done

	// Written by runSession, read by the handler after <-done.
	pipeErr error
	summary dist.SessionSummary

	released bool // the session slot was given back; guarded by Daemon.mu
}

// runSession drives the session's compression: one Pipeline.Compress run per
// segment over the shared segmentSource. On failure it keeps draining the
// batch channel so the handler can never deadlock feeding a dead pipeline.
func (d *Daemon) runSession(s *session) {
	defer close(s.done)
	if d.tracer != nil {
		d.tracer.NameThread(int64(s.id), fmt.Sprintf("session %d (%s)", s.id, s.tenant))
	}
	sp := d.tracer.Span(int64(s.id), "session").ArgStr("tenant", s.tenant)
	err := d.compressSegments(s)
	sp.ArgInt("packets", s.summary.Packets).ArgInt("archives", s.summary.Archives).End()
	if err != nil {
		s.pipeErr = err
		close(s.failed)
		s.src.releaseSlab()
		for b := range s.batches {
			s.src.inflight.Add(-1)
			dist.ReleaseBatch(b)
		}
	}
}

// compressSegments loops segment runs until the batch stream is exhausted.
// Each segment is an independent, standalone flowzip archive — byte-for-byte
// what a serial Compress over that packet range would produce.
func (d *Daemon) compressSegments(s *session) error {
	for seq := 0; ; seq++ {
		s.src.begin()
		arch, err := s.pipe.Compress(s.src)
		if err != nil {
			return err
		}
		if s.src.segPackets > 0 {
			if err := d.writeSegment(s, seq, arch); err != nil {
				return err
			}
		}
		if s.src.done {
			return nil
		}
	}
}

// writeSegment encodes one finished segment, enforces the tenant byte quota,
// and lands the archive plus its sidecar in the tenant's directory.
func (d *Daemon) writeSegment(s *session, seq int, arch *core.Archive) error {
	start := time.Now()
	wsp := d.tracer.Span(int64(s.id), "write-segment").ArgInt("seq", int64(seq))
	esp := d.tracer.Span(int64(s.id), "encode")
	var blob bytes.Buffer
	if _, err := arch.Encode(&blob); err != nil {
		return fmt.Errorf("server: encode segment: %w", err)
	}
	n := int64(blob.Len())
	esp.ArgInt("bytes", n).End()

	if q := d.cfg.Quotas.MaxArchiveBytes; q > 0 {
		d.mu.Lock()
		if d.tenantBytes[s.tenant]+n > q {
			have := d.tenantBytes[s.tenant]
			d.mu.Unlock()
			return fmt.Errorf("server: tenant %s archive byte quota exceeded: %d + %d > %d",
				s.tenant, have, n, q)
		}
		d.tenantBytes[s.tenant] += n
		d.mu.Unlock()
	} else {
		d.mu.Lock()
		d.tenantBytes[s.tenant] += n
		d.mu.Unlock()
	}

	reason := s.src.reason
	if reason == "" {
		// The batch stream ended rather than a rotation boundary firing: the
		// handler recorded why before closing the channel.
		reason = s.endReason
	}
	// The quota was charged above so concurrent sessions of one tenant cannot
	// overshoot it together; a segment that does not land gives its bytes back.
	refund := func() {
		d.mu.Lock()
		d.tenantBytes[s.tenant] -= n
		d.mu.Unlock()
	}
	base := filepath.Join(d.cfg.Dir, s.tenant, fmt.Sprintf("s%05d-%04d.fz", s.id, seq))
	if err := os.WriteFile(base, blob.Bytes(), 0o644); err != nil {
		refund()
		return fmt.Errorf("server: write segment: %w", err)
	}
	meta := SegmentMeta{
		Tenant:  s.tenant,
		Session: s.id,
		Seq:     seq,
		Packets: s.src.segPackets,
		Flows:   arch.Flows(),
		Bytes:   n,
		FirstTS: int64(s.src.firstTS),
		LastTS:  int64(s.src.lastTS),
		Reason:  reason,
	}
	mblob, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+MetaSuffix, append(mblob, '\n'), 0o644); err != nil {
		// Best effort: the refunded archive must not stay behind uncounted,
		// and the session fails whether or not the removal does.
		os.Remove(base)
		refund()
		return fmt.Errorf("server: write segment meta: %w", err)
	}

	s.summary.Packets += s.src.segPackets
	s.summary.Flows += int64(arch.Flows())
	s.summary.Archives++
	s.summary.ArchiveBytes += n
	d.metrics.Archives.Add(1)
	d.metrics.addTenantBytes(s.tenant, n)
	switch reason {
	case ReasonRotateSize:
		d.metrics.RotationsSize.Add(1)
	case ReasonRotateAge:
		d.metrics.RotationsAge.Add(1)
	}
	d.metrics.SegmentSeconds.Observe(time.Since(start).Seconds())
	wsp.ArgInt("packets", s.src.segPackets).ArgInt("bytes", n).ArgStr("reason", reason).End()
	d.log.Info("server: segment written", "session", s.id, "tenant", s.tenant,
		"seq", seq, "packets", s.src.segPackets, "archive", base, "bytes", n, "reason", reason)
	return nil
}

// segmentSource adapts the session's batch channel into one core.PacketSource
// per segment: Next yields batches until the rotation boundary fires (io.EOF
// for this segment; begin starts the next) or the channel closes (io.EOF with
// done set). MaxPackets splits mid-batch, carrying the remainder into the
// next segment, so size boundaries are exact; MaxAge is checked as batches
// are pulled, so an idle session rotates on its next batch.
//
// Batches arrive as pooled slabs (dist.ReleaseBatch). The PacketSource
// contract says a returned slice is only valid until the following Next, and
// the pipeline honors it by copying packets out before pulling again — so
// the slab lent out last call is recycled on the next channel pull, and the
// final one when the channel closes. A mid-batch split keeps the slab alive
// (the leftover aliases it), which the pull-time release handles naturally:
// leftovers are consumed before the next pull.
type segmentSource struct {
	in         <-chan []pkt.Packet
	maxPackets int64
	maxAge     time.Duration
	inflight   *obs.Gauge // credit-window occupancy; decremented per pull

	slab     []pkt.Packet // pooled slab currently lent out (covers leftover)
	leftover []pkt.Packet
	done     bool // channel exhausted: the session is over

	// Per-segment state, reset by begin.
	segPackets int64
	segStart   time.Time
	firstTS    time.Duration
	lastTS     time.Duration
	reason     string // rotation reason, empty when the stream ended
}

// begin resets the per-segment counters for the next Compress run.
func (s *segmentSource) begin() {
	s.segPackets = 0
	s.segStart = time.Now()
	s.firstTS, s.lastTS = 0, 0
	s.reason = ""
}

// Next implements core.PacketSource for the current segment.
func (s *segmentSource) Next() ([]pkt.Packet, error) {
	if s.done {
		return nil, io.EOF
	}
	if s.maxPackets > 0 && s.segPackets >= s.maxPackets {
		s.reason = ReasonRotateSize
		return nil, io.EOF
	}
	if s.maxAge > 0 && s.segPackets > 0 && time.Since(s.segStart) >= s.maxAge {
		s.reason = ReasonRotateAge
		return nil, io.EOF
	}
	batch := s.leftover
	s.leftover = nil
	if batch == nil {
		b, ok := <-s.in
		if !ok {
			s.done = true
			s.releaseSlab()
			return nil, io.EOF
		}
		s.inflight.Add(-1)
		s.releaseSlab()
		s.slab = b
		batch = b
	}
	if s.maxPackets > 0 && s.segPackets+int64(len(batch)) > s.maxPackets {
		cut := s.maxPackets - s.segPackets
		s.leftover = batch[cut:]
		batch = batch[:cut]
	}
	if len(batch) > 0 {
		if s.segPackets == 0 {
			s.firstTS = batch[0].Timestamp
		}
		s.lastTS = batch[len(batch)-1].Timestamp
		s.segPackets += int64(len(batch))
	}
	return batch, nil
}

// releaseSlab recycles the slab lent out by the last Next, once nothing can
// reference it any more: the pipeline has copied its packets and no leftover
// aliases it. Safe to call repeatedly.
func (s *segmentSource) releaseSlab() {
	if s.slab != nil {
		dist.ReleaseBatch(s.slab)
		s.slab = nil
	}
}
