package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"flowzip/internal/core"
	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/wire"
)

// Shard-state wire format (".fzshard"): the serialized form of one
// core.ShardResult, the unit shipped from a worker to the coordinator —
// over a file system, an object store or the TCP protocol in this package.
//
//	magic "FZS1" (4 bytes), version byte
//	uvarint header length, then the header:
//	    uvarint shard index, uvarint shard count
//	    uvarint partition seed (flow.PartitionSeed)
//	    8 bytes LE options fingerprint
//	    uvarint total stream packets
//	    uvarint flow count, uvarint template count
//	    options: uvarint w1, w2, w3, shortMax;
//	             8 bytes LE float64 bits of limitPct;
//	             uvarint nonDepGap ns, smallPayload, largePayload;
//	             8 bytes LE seed
//	    8 bytes reserved, written as zero
//	uvarint templates section length, then per template:
//	    uvarint n, n f-bytes
//	uvarint flows section length, then per flow:
//	    uvarint closing-packet global index
//	    uvarint first timestamp ns
//	    8 bytes LE 5-tuple hash
//	    4 bytes BE server IPv4
//	    flag byte (0: short flow, 1: long flow)
//	    short:  uvarint template id, uvarint rtt ns
//	    long:   uvarint n, n f-bytes, n-1 uvarint gap ns
//	4 bytes LE CRC-32 (IEEE) of everything above
//
// Durations are nanoseconds, not the archive's microseconds: the merge
// orders flows by exact timestamps, so rounding here would break the
// byte-identical invariant. Every length is prefixed and bounded, and the
// trailing checksum covers the whole blob, so a truncated or corrupted
// shard file is always an error, never a panic or a silent partial merge.
//
// The reserved field and flow flag byte 2 once tied a blob to a template
// store living in the process that wrote it; such a blob was never mergeable
// anywhere else, and a non-zero field or a flag 2 is refused.

// Magic is the shard-state file signature, distinct from the archive's
// "FZT1" so `flowzip inspect` can dispatch on the first four bytes.
const Magic = "FZS1"

// Version is the shard-state wire format version this package reads and
// writes. Version 2 added the header's reserved field; version 1 blobs are
// rejected (re-shard, the compression is cheap relative to shipping).
const Version = 2

// inProcessStore is the refusal of a version-2 blob whose template ids point
// into a store private to the process that wrote it.
const inProcessStore = "compressed against an in-process shared template store, re-shard"

// ErrBadShard reports a stream that is not a valid flowzip shard state.
var ErrBadShard = errors.New("dist: not a flowzip shard state")

// maxCount bounds every decoded count and length so corrupt streams cannot
// drive huge allocations (mirrors core's archive decoder).
const maxCount = 1 << 28

// maxHeaderLen bounds the decoded header section.
const maxHeaderLen = 1 << 12

// ShardHeader is the decoded fixed header of a shard-state blob — what
// `flowzip inspect` prints without parsing the payload.
type ShardHeader struct {
	Index         int
	Count         int
	PartitionSeed uint64
	Fingerprint   uint64 // options fingerprint (core.Options.Fingerprint)
	Packets       int64  // total packets in the source stream
	Flows         int
	Templates     int
	Opts          core.Options
}

// appendOptions appends the canonical serialization of o — shared by the
// shard-state header and the protocol's assign and open frames so they
// cannot drift.
func appendOptions(dst []byte, o core.Options) []byte {
	dst = binary.AppendUvarint(dst, uint64(o.Weights.Flag))
	dst = binary.AppendUvarint(dst, uint64(o.Weights.Dep))
	dst = binary.AppendUvarint(dst, uint64(o.Weights.Size))
	dst = binary.AppendUvarint(dst, uint64(o.ShortMax))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(o.LimitPct))
	dst = binary.AppendUvarint(dst, uint64(o.NonDepGap))
	dst = binary.AppendUvarint(dst, uint64(o.SmallPayload))
	dst = binary.AppendUvarint(dst, uint64(o.LargePayload))
	return binary.LittleEndian.AppendUint64(dst, o.Seed)
}

// u64le reads a fixed 8-byte little-endian field.
func u64le(c *wire.Cursor, what string) (uint64, error) {
	b, err := c.Bytes(what, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// decodeOptions parses the canonical Options serialization.
func decodeOptions(c *wire.Cursor) (core.Options, error) {
	o := core.DefaultOptions()
	var err error
	ints := func(dsts ...*int) error {
		for _, dst := range dsts {
			v, err := c.UvarintMax("option value", math.MaxInt32)
			if err != nil {
				return err
			}
			*dst = int(v)
		}
		return nil
	}
	if err := ints(&o.Weights.Flag, &o.Weights.Dep, &o.Weights.Size, &o.ShortMax); err != nil {
		return o, err
	}
	lim, err := u64le(c, "distance limit")
	if err != nil {
		return o, err
	}
	o.LimitPct = math.Float64frombits(lim)
	if o.NonDepGap, err = c.Duration("non-dependence gap", time.Nanosecond); err != nil {
		return o, err
	}
	if err := ints(&o.SmallPayload, &o.LargePayload); err != nil {
		return o, err
	}
	o.Seed, err = u64le(c, "seed")
	return o, err
}

// EncodeShardState serializes r to w in the .fzshard wire format.
func EncodeShardState(w io.Writer, r *core.ShardResult) error {
	if r.Count < 1 || r.Count > flow.MaxShards {
		return fmt.Errorf("dist: encode shard count %d outside [1,%d]", r.Count, flow.MaxShards)
	}
	if r.Index < 0 || r.Index >= r.Count {
		return fmt.Errorf("dist: encode shard index %d outside [0,%d)", r.Index, r.Count)
	}

	var hdr []byte
	hdr = binary.AppendUvarint(hdr, uint64(r.Index))
	hdr = binary.AppendUvarint(hdr, uint64(r.Count))
	hdr = binary.AppendUvarint(hdr, flow.PartitionSeed)
	hdr = binary.LittleEndian.AppendUint64(hdr, r.Opts.Fingerprint())
	hdr = binary.AppendUvarint(hdr, uint64(r.Packets))
	hdr = binary.AppendUvarint(hdr, uint64(len(r.Flows)))
	hdr = binary.AppendUvarint(hdr, uint64(len(r.Templates)))
	hdr = appendOptions(hdr, r.Opts)
	hdr = binary.LittleEndian.AppendUint64(hdr, 0) // reserved

	var tpls []byte
	for _, v := range r.Templates {
		tpls = binary.AppendUvarint(tpls, uint64(len(v)))
		tpls = append(tpls, v...)
	}

	var flows []byte
	for i := range r.Flows {
		f := &r.Flows[i]
		flows = binary.AppendUvarint(flows, uint64(f.CloseIdx))
		flows = binary.AppendUvarint(flows, uint64(f.FirstTS))
		flows = binary.LittleEndian.AppendUint64(flows, f.Hash)
		flows = binary.BigEndian.AppendUint32(flows, uint32(f.Server))
		if f.Long {
			// The decoder reads exactly len(F)-1 gaps with no count prefix;
			// a violated invariant here would misalign the stream under a
			// valid CRC, so it must never leave the encoder.
			if len(f.LongF) == 0 || len(f.Gaps) != len(f.LongF)-1 {
				return fmt.Errorf("dist: encode flow %d has %d gaps for a %d-packet long flow",
					i, len(f.Gaps), len(f.LongF))
			}
			flows = append(flows, 1)
			flows = binary.AppendUvarint(flows, uint64(len(f.LongF)))
			flows = append(flows, f.LongF...)
			for _, g := range f.Gaps {
				flows = binary.AppendUvarint(flows, uint64(g))
			}
		} else {
			flows = append(flows, 0)
			if int(f.Template) >= len(r.Templates) {
				return fmt.Errorf("dist: encode flow %d references template %d of %d",
					i, f.Template, len(r.Templates))
			}
			flows = binary.AppendUvarint(flows, uint64(f.Template))
			flows = binary.AppendUvarint(flows, uint64(f.RTT))
		}
	}

	// Sections stream straight to the writer — the CRC accumulates through
	// the MultiWriter, so no fourth copy of the blob is ever resident.
	crc := crc32.NewIEEE()
	out := io.MultiWriter(w, crc)
	if _, err := io.WriteString(out, Magic); err != nil {
		return err
	}
	if _, err := out.Write([]byte{Version}); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	for _, section := range [][]byte{hdr, tpls, flows} {
		if _, err := out.Write(binary.AppendUvarint(scratch[:0], uint64(len(section)))); err != nil {
			return err
		}
		if _, err := out.Write(section); err != nil {
			return err
		}
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(scratch[:0], crc.Sum32()))
	return err
}

// readShardSection reads a uvarint length, at most limit, then that many bytes
// from r. The buffer grows only as the stream delivers (wire.ReadN), so a
// huge length in front of a short stream is an error, not an allocation.
func readShardSection(r io.Reader, limit uint64, what string) (wire.Cursor, error) {
	n, err := wire.ReadUvarint(r)
	if err != nil {
		return wire.Cursor{}, fmt.Errorf("%w: %s length: %v", ErrBadShard, what, err)
	}
	if n > limit {
		return wire.Cursor{}, fmt.Errorf("%w: %s length %d exceeds sanity bound", ErrBadShard, what, n)
	}
	b, err := wire.ReadN(r, n)
	if err != nil {
		return wire.Cursor{}, fmt.Errorf("%w: %s: %v", ErrBadShard, what, err)
	}
	return wire.NewCursor(b, ErrBadShard), nil
}

// crcReader updates a running CRC with every byte read through it.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// decodeHeader parses the header section.
func decodeHeader(c *wire.Cursor) (*ShardHeader, error) {
	h := &ShardHeader{}
	idx, err := c.Uvarint("shard index")
	if err != nil {
		return nil, err
	}
	cnt, err := c.Uvarint("shard count")
	if err != nil {
		return nil, err
	}
	if cnt < 1 || cnt > flow.MaxShards {
		return nil, c.Errorf("shard count %d outside [1,%d]", cnt, flow.MaxShards)
	}
	if idx >= cnt {
		return nil, c.Errorf("shard index %d outside [0,%d)", idx, cnt)
	}
	h.Index, h.Count = int(idx), int(cnt)
	if h.PartitionSeed, err = c.Uvarint("partition seed"); err != nil {
		return nil, err
	}
	if h.PartitionSeed != flow.PartitionSeed {
		return nil, c.Errorf("partition seed %d, this build uses %d — shards were partitioned by an incompatible scheme",
			h.PartitionSeed, flow.PartitionSeed)
	}
	if h.Fingerprint, err = u64le(c, "options fingerprint"); err != nil {
		return nil, err
	}
	pkts, err := c.UvarintMax("packet count", math.MaxInt64)
	if err != nil {
		return nil, err
	}
	h.Packets = int64(pkts)
	flows, err := c.UvarintMax("flow count", maxCount)
	if err != nil {
		return nil, err
	}
	tpls, err := c.UvarintMax("template count", maxCount)
	if err != nil {
		return nil, err
	}
	h.Flows, h.Templates = int(flows), int(tpls)
	if h.Opts, err = decodeOptions(c); err != nil {
		return nil, err
	}
	if got := h.Opts.Fingerprint(); got != h.Fingerprint {
		return nil, c.Errorf("options fingerprint %016x does not match the decoded options (%016x) — mixed or corrupt header",
			h.Fingerprint, got)
	}
	reserved, err := u64le(c, "reserved field")
	if err != nil {
		return nil, err
	}
	if reserved != 0 {
		return nil, c.Errorf(inProcessStore)
	}
	return h, nil
}

// readMagic consumes and checks the magic and version bytes.
func readMagic(r io.Reader) error {
	var m [5]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadShard, err)
	}
	if string(m[:4]) != Magic {
		return ErrBadShard
	}
	if m[4] != Version {
		return fmt.Errorf("%w: unsupported shard format version %d (this build reads version %d)",
			ErrBadShard, m[4], Version)
	}
	return nil
}

// ReadShardHeader decodes only the header of a shard-state stream — enough
// for `flowzip inspect` and for the coordinator to validate a blob before
// committing to the full parse. It does not verify the trailing checksum.
func ReadShardHeader(r io.Reader) (*ShardHeader, error) {
	if err := readMagic(r); err != nil {
		return nil, err
	}
	hdr, err := readShardSection(r, maxHeaderLen, "header")
	if err != nil {
		return nil, err
	}
	return decodeHeader(&hdr)
}

// minFlowBytes is the smallest flow encoding: varint close index and
// timestamp, 8-byte hash, 4-byte address, flag byte, then the short or long
// payload.
const minFlowBytes = 16

// DecodeShardState parses and fully validates a shard-state stream,
// including the trailing checksum.
func DecodeShardState(r io.Reader) (*core.ShardResult, error) {
	cr := &crcReader{r: r}
	if err := readMagic(cr); err != nil {
		return nil, err
	}
	hdrSec, err := readShardSection(cr, maxHeaderLen, "header")
	if err != nil {
		return nil, err
	}
	h, err := decodeHeader(&hdrSec)
	if err != nil {
		return nil, err
	}

	tplSec, err := readShardSection(cr, maxCount, "templates section")
	if err != nil {
		return nil, err
	}
	// The counts come from the header, not from in front of the items, so
	// they are checked against the section just read before sizing a slice:
	// a crafted header cannot drive an allocation beyond the blob's own size.
	if err := tplSec.Fits("template count", h.Templates, 1); err != nil {
		return nil, err
	}
	templates := make([]flow.Vector, h.Templates)
	for i := range templates {
		n, err := tplSec.Count("template length", maxCount, 1)
		if err != nil {
			return nil, fmt.Errorf("dist: template %d: %w", i, err)
		}
		b, err := tplSec.Bytes("template", n)
		if err != nil {
			return nil, fmt.Errorf("dist: template %d: %w", i, err)
		}
		templates[i] = flow.Vector(b)
	}
	if err := tplSec.Done("templates section"); err != nil {
		return nil, err
	}

	flowSec, err := readShardSection(cr, maxCount, "flows section")
	if err != nil {
		return nil, err
	}
	if err := flowSec.Fits("flow count", h.Flows, minFlowBytes); err != nil {
		return nil, err
	}
	flows := make([]core.ShardFlow, h.Flows)
	for i := range flows {
		if flows[i], err = decodeFlow(&flowSec, h); err != nil {
			return nil, fmt.Errorf("dist: flow %d: %w", i, err)
		}
	}
	if err := flowSec.Done("flows section"); err != nil {
		return nil, err
	}

	want := cr.crc
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("%w: checksum: %v", ErrBadShard, err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrBadShard, got, want)
	}

	return &core.ShardResult{
		Index:     h.Index,
		Count:     h.Count,
		Packets:   h.Packets,
		Opts:      h.Opts,
		Flows:     flows,
		Templates: templates,
	}, nil
}

// decodeFlow reads one flow record. Its long vector aliases the section
// buffer, which the decoded shard owns.
func decodeFlow(c *wire.Cursor, h *ShardHeader) (core.ShardFlow, error) {
	var f core.ShardFlow
	closeIdx, err := c.UvarintMax("closing index", math.MaxInt64)
	if err != nil {
		return f, err
	}
	f.CloseIdx = int64(closeIdx)
	if f.FirstTS, err = c.Duration("first timestamp", time.Nanosecond); err != nil {
		return f, err
	}
	if f.Hash, err = u64le(c, "5-tuple hash"); err != nil {
		return f, err
	}
	ip, err := c.Bytes("server address", 4)
	if err != nil {
		return f, err
	}
	f.Server = pkt.IPv4(binary.BigEndian.Uint32(ip))
	f.Shard = uint16(h.Index)
	flag, err := c.Bytes("flow flag", 1)
	if err != nil {
		return f, err
	}
	switch flag[0] {
	case 1:
		f.Long = true
		n, err := c.Count("long vector length", maxCount, 1)
		if err != nil {
			return f, err
		}
		if n < 1 {
			return f, c.Errorf("empty long vector")
		}
		b, err := c.Bytes("long vector", n)
		if err != nil {
			return f, err
		}
		f.LongF = flow.Vector(b)
		if err := c.Fits("gap count", n-1, 1); err != nil {
			return f, err
		}
		f.Gaps = make([]time.Duration, n-1)
		for g := range f.Gaps {
			if f.Gaps[g], err = c.Duration("gap", time.Nanosecond); err != nil {
				return f, err
			}
		}
	case 0:
		tpl, err := c.Uvarint("template id")
		if err != nil {
			return f, err
		}
		if tpl >= uint64(h.Templates) {
			return f, c.Errorf("short flow references template %d of %d", tpl, h.Templates)
		}
		f.Template = int32(tpl)
		if f.RTT, err = c.Duration("rtt", time.Nanosecond); err != nil {
			return f, err
		}
	case 2:
		return f, c.Errorf(inProcessStore)
	default:
		return f, c.Errorf("unknown flow flag byte %#x", flag[0])
	}
	return f, nil
}
