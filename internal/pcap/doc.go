// Package pcap implements the classic libpcap capture file format
// (little-endian, microsecond resolution, LINKTYPE_RAW) for interchange with
// standard tooling. Packets are written as bare IPv4 datagrams — header-only
// records, like the traces the paper works with: the captured length is the
// 40 header bytes while the original length includes the payload.
//
// Three access granularities are provided:
//
//   - Reader / Writer decode and encode one record at a time over any
//     io.Reader / io.Writer — the building blocks.
//   - Source wraps a Reader into batch-oriented, bounded-memory reads: Next
//     returns up to one batch of packets and reuses its buffer, so a
//     multi-gigabyte capture streams through core.Pipeline.Compress without
//     ever being resident. Open opens a capture file directly as a Source.
//   - ReadAll / WriteAll are the whole-file conveniences used by package
//     trace for in-memory loads.
//
// A Source that hits a decode error mid-batch first returns the packets
// already decoded, then surfaces the error on the following Next call, so
// no successfully decoded packet is lost to a truncated tail.
package pcap
