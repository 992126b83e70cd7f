// Package trace provides the in-memory packet-trace container shared by the
// compressor, the generators and the measurement harness, plus conversion to
// and from the on-disk formats (TSH, pcap) and whole-trace statistics.
package trace

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"flowzip/internal/pcap"
	"flowzip/internal/pkt"
	"flowzip/internal/tsh"
)

// Trace is an ordered sequence of header packets.
type Trace struct {
	// Name labels the trace in reports ("RedIRIS", "Decomp", ...).
	Name string
	// Packets in timestamp order (Sort enforces this).
	Packets []pkt.Packet
}

// New returns an empty named trace.
func New(name string) *Trace { return &Trace{Name: name} }

// Append adds a packet.
func (t *Trace) Append(p pkt.Packet) { t.Packets = append(t.Packets, p) }

// Len returns the number of packets.
func (t *Trace) Len() int { return len(t.Packets) }

// Sort orders packets by timestamp (stable, preserving generation order of
// simultaneous packets).
func (t *Trace) Sort() {
	slices.SortStableFunc(t.Packets, byTimestamp)
}

func byTimestamp(a, b pkt.Packet) int { return cmp.Compare(a.Timestamp, b.Timestamp) }

// IsSorted reports whether packets are in timestamp order.
func (t *Trace) IsSorted() bool {
	return slices.IsSortedFunc(t.Packets, byTimestamp)
}

// Duration returns the time span between first and last packet.
func (t *Trace) Duration() time.Duration {
	if len(t.Packets) == 0 {
		return 0
	}
	first := t.Packets[0].Timestamp
	last := t.Packets[0].Timestamp
	for i := range t.Packets {
		ts := t.Packets[i].Timestamp
		if ts < first {
			first = ts
		}
		if ts > last {
			last = ts
		}
	}
	return last - first
}

// Clone deep-copies the trace.
func (t *Trace) Clone() *Trace {
	return &Trace{Name: t.Name, Packets: append([]pkt.Packet(nil), t.Packets...)}
}

// Slice returns the sub-trace with timestamps in [from, to).
func (t *Trace) Slice(from, to time.Duration) *Trace {
	out := New(t.Name)
	for i := range t.Packets {
		if ts := t.Packets[i].Timestamp; ts >= from && ts < to {
			out.Append(t.Packets[i])
		}
	}
	return out
}

// Stats summarizes a trace the way the paper quotes trace properties.
type Stats struct {
	Packets    int
	Bytes      int64 // wire bytes (headers + payloads)
	HeaderOnly int64 // header-trace bytes (HeaderBytes per packet)
	TSHBytes   int64 // on-disk TSH size
	Duration   time.Duration
	UniqueDst  int
	UniqueSrc  int
	Flows      int // distinct canonical 5-tuples
}

// ComputeStats scans the trace once.
func (t *Trace) ComputeStats() Stats {
	s := Stats{Packets: len(t.Packets), Duration: t.Duration()}
	dst := map[pkt.IPv4]struct{}{}
	src := map[pkt.IPv4]struct{}{}
	flows := map[pkt.FlowKey]struct{}{}
	for i := range t.Packets {
		p := &t.Packets[i]
		s.Bytes += int64(p.TotalLen())
		dst[p.DstIP] = struct{}{}
		src[p.SrcIP] = struct{}{}
		flows[p.Key()] = struct{}{}
	}
	s.HeaderOnly = int64(len(t.Packets)) * pkt.HeaderBytes
	s.TSHBytes = tsh.Size(len(t.Packets))
	s.UniqueDst = len(dst)
	s.UniqueSrc = len(src)
	s.Flows = len(flows)
	return s
}

// String renders a one-line stat summary.
func (s Stats) String() string {
	return fmt.Sprintf("packets=%d flows=%d bytes=%d tsh=%d dur=%s dst=%d src=%d",
		s.Packets, s.Flows, s.Bytes, s.TSHBytes,
		s.Duration.Round(time.Millisecond), s.UniqueDst, s.UniqueSrc)
}

// Format identifies an on-disk trace encoding.
type Format int

// Supported formats.
const (
	FormatTSH Format = iota
	FormatPCAP
)

// formatForPath guesses the format from a file extension
// (.pcap/.cap → pcap, anything else → TSH).
func formatForPath(path string) Format {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".pcap", ".cap":
		return FormatPCAP
	default:
		return FormatTSH
	}
}

// Write encodes the trace to w in the given format.
func (t *Trace) Write(w io.Writer, f Format) error {
	switch f {
	case FormatTSH:
		return tsh.WriteAll(w, t.Packets)
	case FormatPCAP:
		return pcap.WriteAll(w, t.Packets)
	default:
		return fmt.Errorf("trace: unknown format %d", f)
	}
}

// decoder returns the format's block decoder and the number of header-only
// records a file of size bytes holds (exact for TSH and for the pcap files
// this repository writes; a pcap with longer captured slices holds fewer).
func (f Format) decoder(size int64) (pkt.BlockDecoder, int64) {
	if f == FormatPCAP {
		return &pcap.Decoder{}, (size - pcap.GlobalHeaderLen) / (pcap.RecordHeaderLen + pkt.HeaderBytes)
	}
	return &tsh.Decoder{}, size / tsh.RecordLen
}

// read decodes a trace from r, which holds size bytes if the caller knows
// (0 if not): the packet slice is then made once, at its final length.
func read(r io.Reader, f Format, name string, size int64) (*Trace, error) {
	if f != FormatTSH && f != FormatPCAP {
		return nil, fmt.Errorf("trace: unknown format %d", f)
	}
	d, records := f.decoder(size)
	packets, err := pkt.ReadAll(r, d, records)
	if err != nil {
		return nil, err
	}
	return &Trace{Name: name, Packets: packets}, nil
}

// SaveFile writes the trace to path, choosing the format from the extension.
func (t *Trace) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	if err := t.Write(f, formatForPath(path)); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a trace from path, choosing the format from the extension.
func LoadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	var size int64
	if st, err := f.Stat(); err == nil {
		size = st.Size()
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return read(f, formatForPath(path), name, size)
}
