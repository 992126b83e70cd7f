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
	Packets  int
	Bytes    int64 // wire bytes (headers + payloads)
	TSHBytes int64 // on-disk TSH size
	Duration time.Duration
	Flows    int // distinct canonical 5-tuples
}

// ComputeStats scans the trace once.
func (t *Trace) ComputeStats() Stats {
	s := Stats{Packets: len(t.Packets), Duration: t.Duration()}
	flows := map[pkt.FlowKey]struct{}{}
	for i := range t.Packets {
		p := &t.Packets[i]
		s.Bytes += int64(p.TotalLen())
		flows[p.Key()] = struct{}{}
	}
	s.TSHBytes = tsh.Size(len(t.Packets))
	s.Flows = len(flows)
	return s
}

// String renders a one-line stat summary.
func (s Stats) String() string {
	return fmt.Sprintf("packets=%d flows=%d bytes=%d tsh=%d dur=%s",
		s.Packets, s.Flows, s.Bytes, s.TSHBytes, s.Duration.Round(time.Millisecond))
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
	w, err := Create(path)
	if err != nil {
		return err
	}
	return cmp.Or(w.Write(t.Packets), w.Close())
}

// Create creates the trace file path for packets written a batch at a time,
// in the format its extension names (.pcap/.cap → pcap, anything else →
// TSH). Write encodes a batch into the file's buffer, which goes out as it
// fills; Close writes what is left and closes the file.
func Create(path string) (*fileWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return &fileWriter{packetWriter: formatForPath(path).writer(f), f: f}, nil
}

// fileWriter is the file Create makes.
type fileWriter struct {
	packetWriter
	f *os.File
}

// packetWriter is what the format writers (tsh.Writer, pcap.Writer) have in
// common.
type packetWriter interface {
	WritePacket(p *pkt.Packet) error
	Flush() error
}

// writer returns the format's record writer over w.
func (f Format) writer(w io.Writer) packetWriter {
	if f == FormatPCAP {
		return pcap.NewWriter(w)
	}
	return tsh.NewWriter(w)
}

// Write appends packets to the file.
func (w *fileWriter) Write(packets []pkt.Packet) error {
	for i := range packets {
		if err := w.WritePacket(&packets[i]); err != nil {
			return err
		}
	}
	return nil
}

// Close writes out the buffered records and closes the file, which it closes
// even when the write fails.
func (w *fileWriter) Close() error { return cmp.Or(w.Flush(), w.f.Close()) }

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
