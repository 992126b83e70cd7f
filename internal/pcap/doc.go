// Package pcap implements the classic libpcap capture file format
// (little-endian, microsecond resolution, LINKTYPE_RAW) for interchange with
// standard tooling. Packets are written as bare IPv4 datagrams — header-only
// records, like the traces the paper works with: the captured length is the
// 40 header bytes while the original length includes the payload.
//
// Three access granularities are provided, over one record parse and one
// record marshal:
//
//   - Decoder is the format's half of the block codec in package pkt: it
//     parses every whole record in a 64 KiB block in place (bounding the
//     captured length, the IP header length and the wire length, and naming
//     the record in the error). Source is a pkt.BatchReader over it: Next
//     returns up to one batch of packets and reuses its buffer, so a
//     multi-gigabyte capture streams through core.Pipeline.Compress without
//     ever being resident. Open opens a capture file directly as a Source.
//   - Reader / Writer take one record at a time. Reader is the same reader at
//     a batch of one. Writer encodes with PutRecord into a block that goes
//     out in one Write when full, so Flush must follow the last WritePacket.
//   - ReadAll / WriteAll take a whole capture; package trace saves with
//     WriteAll and loads through pkt.ReadAll over a Decoder, with the record
//     count the file size implies.
//
// A Source that hits a decode error mid-batch first returns the packets
// already decoded, then surfaces the error on the following Next call, so
// no successfully decoded packet is lost to a truncated tail.
package pcap
