package baseline

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"flowzip/internal/pkt"
	"flowzip/internal/trace"
	"flowzip/internal/tsh"
)

// VJ implements Van Jacobson RFC 1144 header compression with the paper's
// Section 5 adaptation for high-speed links: a 2-byte timestamp is added to
// every delta record and the connection identifier is widened from 1 to 3
// bytes, giving a minimum encoded header of 6 bytes. The first packet of
// each connection ships as a full (TSH) record plus the CID; the opposite
// direction of an already-seen connection opens with a compact
// reverse-context record (its addresses and ports derive from the forward
// tuple, as a serial-link VJ state machine would share the connection slot).
//
// Unlike the paper — which only bounds the ratio analytically — this is a
// working lossless codec: Decode(Encode(trace)) reproduces the trace at
// microsecond timestamp resolution.
type VJ struct{}

// NewVJ returns the codec.
func NewVJ() *VJ { return &VJ{} }

// Name implements Method.
func (*VJ) Name() string { return "VJ" }

// Record markers and delta-record change-mask bits. Mask bytes use only the
// low 7 bits, so they never collide with the 0xFF/0xFE markers.
const (
	vjFull  = 0xFF // marker: full TSH record opening a connection
	vjRev   = 0xFE // marker: compact record opening the reverse direction
	vjSeq   = 0x01 // seq differs from prediction (prev seq + prev payload)
	vjAck   = 0x02 // ack changed
	vjWin   = 0x04 // window changed
	vjLen   = 0x08 // payload length changed
	vjFlags = 0x10 // TCP flags changed
	vjTS4   = 0x20 // timestamp delta needs 4 bytes instead of 2
	vjIPID  = 0x40 // IP ID differs from prediction (prev + 1)
)

// vjState is the per-connection (unidirectional 5-tuple) compression state.
// last.Timestamp is always µs-quantized so encoder and decoder clocks agree.
type vjState struct {
	last pkt.Packet
}

// predictSeq is the RFC 1144 sequence prediction: previous sequence number
// advanced by the previous segment's payload (SYN/FIN consume one).
func (s *vjState) predictSeq() uint32 {
	n := s.last.Seq + uint32(s.last.PayloadLen)
	if s.last.Flags&(pkt.FlagSYN|pkt.FlagFIN) != 0 {
		n++
	}
	return n
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func quantizeUS(d time.Duration) time.Duration {
	return d / time.Microsecond * time.Microsecond
}

// putCID writes a 24-bit connection id.
func putCID(bw *bufio.Writer, cid uint32) error {
	var b [3]byte
	b[0], b[1], b[2] = byte(cid>>16), byte(cid>>8), byte(cid)
	_, err := bw.Write(b[:])
	return err
}

func readCID(br *bufio.Reader) (uint32, error) {
	var b [3]byte
	if _, err := io.ReadFull(br, b[:]); err != nil {
		return 0, err
	}
	return uint32(b[0])<<16 | uint32(b[1])<<8 | uint32(b[2]), nil
}

// Encode implements Method.
func (vj *VJ) Encode(w io.Writer, tr *trace.Trace) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	states := map[pkt.FiveTuple]*vjState{}
	cids := map[pkt.FiveTuple]uint32{}
	var varbuf [binary.MaxVarintLen64]byte
	var rec [tsh.RecordLen]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(varbuf[:], v)
		_, err := bw.Write(varbuf[:n])
		return err
	}

	newCID := func(tup pkt.FiveTuple) (uint32, error) {
		cid := uint32(len(cids))
		if cid >= 1<<24 {
			return 0, errors.New("baseline: vj: connection id space exhausted")
		}
		cids[tup] = cid
		return cid, nil
	}

	writeFull := func(cid uint32, p *pkt.Packet) error {
		if err := bw.WriteByte(vjFull); err != nil {
			return err
		}
		if err := putCID(bw, cid); err != nil {
			return err
		}
		tsh.PutRecord(rec[:], p)
		_, err := bw.Write(rec[:])
		return err
	}

	// writeReverse opens the reverse direction of an existing connection:
	// marker, new cid, forward cid, µs delta from the forward context's
	// clock, then the non-derivable header fields.
	writeReverse := func(cid, revCID uint32, p *pkt.Packet, revLast time.Duration) error {
		if err := bw.WriteByte(vjRev); err != nil {
			return err
		}
		if err := putCID(bw, cid); err != nil {
			return err
		}
		if err := putCID(bw, revCID); err != nil {
			return err
		}
		delta := (quantizeUS(p.Timestamp) - revLast) / time.Microsecond
		if err := writeUvarint(uint64(delta)); err != nil {
			return err
		}
		var b [16]byte
		binary.BigEndian.PutUint32(b[0:4], p.Seq)
		binary.BigEndian.PutUint32(b[4:8], p.Ack)
		binary.BigEndian.PutUint16(b[8:10], p.Window)
		b[10] = byte(p.Flags)
		b[11] = p.TTL
		binary.BigEndian.PutUint16(b[12:14], p.IPID)
		binary.BigEndian.PutUint16(b[14:16], p.PayloadLen)
		_, err := bw.Write(b[:])
		return err
	}

	for i := range tr.Packets {
		p := &tr.Packets[i]
		tup := p.Tuple()
		st, ok := states[tup]
		if !ok {
			cid, err := newCID(tup)
			if err != nil {
				return cw.n, err
			}
			rev, haveRev := states[tup.Reverse()]
			if haveRev && quantizeUS(p.Timestamp) >= rev.last.Timestamp {
				if err := writeReverse(cid, cids[tup.Reverse()], p, rev.last.Timestamp); err != nil {
					return cw.n, err
				}
			} else if err := writeFull(cid, p); err != nil {
				return cw.n, err
			}
			st = &vjState{last: *p}
			st.last.Timestamp = quantizeUS(p.Timestamp)
			states[tup] = st
			continue
		}
		cid := cids[tup]

		qts := quantizeUS(p.Timestamp)
		tsDelta := (qts - st.last.Timestamp) / time.Microsecond
		if tsDelta < 0 || tsDelta > 0xFFFFFFFF || p.TTL != st.last.TTL {
			// Out-of-model packet: fall back to a full record.
			if err := writeFull(cid, p); err != nil {
				return cw.n, err
			}
			st.last = *p
			st.last.Timestamp = qts
			continue
		}

		var mask byte
		if p.Seq != st.predictSeq() {
			mask |= vjSeq
		}
		if p.Ack != st.last.Ack {
			mask |= vjAck
		}
		if p.Window != st.last.Window {
			mask |= vjWin
		}
		if p.PayloadLen != st.last.PayloadLen {
			mask |= vjLen
		}
		if p.Flags != st.last.Flags {
			mask |= vjFlags
		}
		if tsDelta > 0xFFFF {
			mask |= vjTS4
		}
		if p.IPID != st.last.IPID+1 {
			mask |= vjIPID
		}

		if err := bw.WriteByte(mask); err != nil {
			return cw.n, err
		}
		if err := putCID(bw, cid); err != nil {
			return cw.n, err
		}
		if mask&vjTS4 != 0 {
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], uint32(tsDelta))
			if _, err := bw.Write(b[:]); err != nil {
				return cw.n, err
			}
		} else {
			var b [2]byte
			binary.BigEndian.PutUint16(b[:], uint16(tsDelta))
			if _, err := bw.Write(b[:]); err != nil {
				return cw.n, err
			}
		}
		if mask&vjSeq != 0 {
			if err := writeUvarint(zigzag(int64(p.Seq) - int64(st.predictSeq()))); err != nil {
				return cw.n, err
			}
		}
		if mask&vjAck != 0 {
			if err := writeUvarint(zigzag(int64(p.Ack) - int64(st.last.Ack))); err != nil {
				return cw.n, err
			}
		}
		if mask&vjWin != 0 {
			var b [2]byte
			binary.BigEndian.PutUint16(b[:], p.Window)
			if _, err := bw.Write(b[:]); err != nil {
				return cw.n, err
			}
		}
		if mask&vjLen != 0 {
			var b [2]byte
			binary.BigEndian.PutUint16(b[:], p.PayloadLen)
			if _, err := bw.Write(b[:]); err != nil {
				return cw.n, err
			}
		}
		if mask&vjFlags != 0 {
			if err := bw.WriteByte(byte(p.Flags)); err != nil {
				return cw.n, err
			}
		}
		if mask&vjIPID != 0 {
			var b [2]byte
			binary.BigEndian.PutUint16(b[:], p.IPID)
			if _, err := bw.Write(b[:]); err != nil {
				return cw.n, err
			}
		}
		st.last = *p
		st.last.Timestamp = qts
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// Decode reverses Encode, reconstructing the packet stream exactly (with
// microsecond timestamp resolution).
func (vj *VJ) Decode(r io.Reader) (*trace.Trace, error) {
	br := bufio.NewReader(r)
	tr := trace.New("vj-decoded")
	states := map[uint32]*vjState{}
	tuples := map[uint32]pkt.FiveTuple{}
	var rec [tsh.RecordLen]byte

	for {
		marker, err := br.ReadByte()
		if err == io.EOF {
			return tr, nil
		}
		if err != nil {
			return nil, err
		}
		cid, err := readCID(br)
		if err != nil {
			return nil, fmt.Errorf("baseline: vj decode cid: %w", err)
		}
		switch marker {
		case vjFull:
			var p pkt.Packet
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return nil, fmt.Errorf("baseline: vj decode full record: %w", err)
			}
			if err := tsh.ParseRecord(rec[:], &p); err != nil {
				return nil, fmt.Errorf("baseline: vj decode full record: %w", err)
			}
			states[cid] = &vjState{last: p}
			tuples[cid] = p.Tuple()
			tr.Append(p)
			continue

		case vjRev:
			revCID, err := readCID(br)
			if err != nil {
				return nil, err
			}
			rev, ok := states[revCID]
			if !ok {
				return nil, fmt.Errorf("baseline: vj reverse record for unknown cid %d", revCID)
			}
			delta, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			var b [16]byte
			if _, err := io.ReadFull(br, b[:]); err != nil {
				return nil, err
			}
			tup := tuples[revCID].Reverse()
			p := pkt.Packet{
				Timestamp:  rev.last.Timestamp + time.Duration(delta)*time.Microsecond,
				SrcIP:      tup.SrcIP,
				DstIP:      tup.DstIP,
				SrcPort:    tup.SrcPort,
				DstPort:    tup.DstPort,
				Proto:      tup.Proto,
				Seq:        binary.BigEndian.Uint32(b[0:4]),
				Ack:        binary.BigEndian.Uint32(b[4:8]),
				Window:     binary.BigEndian.Uint16(b[8:10]),
				Flags:      pkt.TCPFlags(b[10]),
				TTL:        b[11],
				IPID:       binary.BigEndian.Uint16(b[12:14]),
				PayloadLen: binary.BigEndian.Uint16(b[14:16]),
			}
			states[cid] = &vjState{last: p}
			tuples[cid] = tup
			tr.Append(p)
			continue
		}

		// Delta record: marker is the change mask.
		mask := marker
		st := states[cid]
		if st == nil {
			return nil, fmt.Errorf("baseline: vj delta for unknown cid %d", cid)
		}
		p := st.last
		var tsDelta uint64
		if mask&vjTS4 != 0 {
			var b [4]byte
			if _, err := io.ReadFull(br, b[:]); err != nil {
				return nil, err
			}
			tsDelta = uint64(binary.BigEndian.Uint32(b[:]))
		} else {
			var b [2]byte
			if _, err := io.ReadFull(br, b[:]); err != nil {
				return nil, err
			}
			tsDelta = uint64(binary.BigEndian.Uint16(b[:]))
		}
		p.Timestamp = st.last.Timestamp + time.Duration(tsDelta)*time.Microsecond
		p.Seq = st.predictSeq()
		if mask&vjSeq != 0 {
			u, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			p.Seq = uint32(int64(st.predictSeq()) + unzigzag(u))
		}
		if mask&vjAck != 0 {
			u, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			p.Ack = uint32(int64(st.last.Ack) + unzigzag(u))
		}
		if mask&vjWin != 0 {
			var b [2]byte
			if _, err := io.ReadFull(br, b[:]); err != nil {
				return nil, err
			}
			p.Window = binary.BigEndian.Uint16(b[:])
		}
		if mask&vjLen != 0 {
			var b [2]byte
			if _, err := io.ReadFull(br, b[:]); err != nil {
				return nil, err
			}
			p.PayloadLen = binary.BigEndian.Uint16(b[:])
		}
		if mask&vjFlags != 0 {
			fb, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			p.Flags = pkt.TCPFlags(fb)
		}
		p.IPID = st.last.IPID + 1
		if mask&vjIPID != 0 {
			var b [2]byte
			if _, err := io.ReadFull(br, b[:]); err != nil {
				return nil, err
			}
			p.IPID = binary.BigEndian.Uint16(b[:])
		}
		st.last = p
		tr.Append(p)
	}
}
