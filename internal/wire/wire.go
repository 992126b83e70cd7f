// Package wire holds the bounded decoding primitives under every flowzip
// binary format: the .fz body and footer index (internal/core) and the
// session frames (internal/dist). Encoders need no
// counterpart here — they append to a []byte with encoding/binary's
// AppendUvarint and AppendUint32.
//
// The one rule: nothing is sized from a decoded number until that number has
// been checked against the input that actually exists. Cursor checks counts
// and lengths against the bytes that remain in its buffer; ReadN grows its
// buffer only as the stream delivers.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"iter"
)

// Cursor decodes fields from the front of a byte slice. Every error names the
// field being read and wraps the sentinel the Cursor was made with, so
// callers keep matching their own format error with errors.Is.
//
// A primitive that succeeds allocates nothing: what it returns aliases the
// buffer or is a number. One that fails allocates its error and nothing
// else, at most 1 KiB for a field name of a few dozen bytes.
type Cursor struct {
	b   []byte
	bad error
}

// NewCursor returns a cursor over b whose errors wrap bad.
func NewCursor(b []byte, bad error) Cursor { return Cursor{b: b, bad: bad} }

// Len returns the number of bytes not yet consumed.
func (c *Cursor) Len() int { return len(c.b) }

// Errorf formats an error that wraps the cursor's sentinel, for the checks a
// format makes on values the cursor has already read.
func (c *Cursor) Errorf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{c.bad}, args...)...)
}

// Uvarint reads one unsigned varint. UvarintMax repeats its four lines rather
// than call it: it sits in the per-record loops of every decoder, where the
// extra call level cost a third of the record's decode time (50 vs 33 ns per
// time-seq record).
func (c *Cursor) Uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		return 0, c.badUvarint(what, n)
	}
	c.b = c.b[n:]
	return v, nil
}

// badUvarint explains a failed binary.Uvarint; it is split from Uvarint to
// keep the per-field path small.
func (c *Cursor) badUvarint(what string, n int) error {
	if n == 0 {
		return c.Errorf("truncated %s", what)
	}
	return c.Errorf("%s varint overflows 64 bits", what)
}

// UvarintMax reads a varint that must not exceed max — the largest value the
// destination field can hold.
func (c *Cursor) UvarintMax(what string, max uint64) (uint64, error) {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		return 0, c.badUvarint(what, n)
	}
	c.b = c.b[n:]
	if v > max {
		return 0, c.Errorf("%s %d exceeds %d", what, v, max)
	}
	return v, nil
}

// Count reads the number of items that follow. It must not exceed limit, and
// — each item occupying at least minItemBytes (>= 1) — the items must fit in
// the bytes that remain, so a slice of the returned length is never larger
// than the input justifies.
func (c *Cursor) Count(what string, limit uint64, minItemBytes int) (int, error) {
	v, err := c.UvarintMax(what, limit)
	if err != nil {
		return 0, err
	}
	if v > uint64(len(c.b)/minItemBytes) {
		return 0, c.tooMany(what, v)
	}
	return int(v), nil
}

func (c *Cursor) tooMany(what string, n uint64) error {
	return c.Errorf("%s %d exceeds the %d bytes that remain", what, n, len(c.b))
}

// Bytes consumes the next n bytes. The result aliases the cursor's buffer.
func (c *Cursor) Bytes(what string, n int) ([]byte, error) {
	if n < 0 || n > len(c.b) {
		return nil, c.Errorf("truncated %s (need %d bytes, have %d)", what, n, len(c.b))
	}
	b := c.b[:n:n]
	c.b = c.b[n:]
	return b, nil
}

// Sub consumes the next n bytes as a cursor of their own, for a part of the
// format that carries its length in front.
func (c *Cursor) Sub(what string, n int) (Cursor, error) {
	b, err := c.Bytes(what, n)
	return Cursor{b: b, bad: c.bad}, err
}

// Done reports an error when bytes remain after the last field of what.
func (c *Cursor) Done(what string) error {
	if len(c.b) != 0 {
		return c.Errorf("%d trailing bytes after %s", len(c.b), what)
	}
	return nil
}

// readStep is the most ReadN reserves before the stream has delivered
// anything.
const readStep = 1 << 16

// ReadN reads exactly n bytes from r. The buffer starts at most readStep
// bytes long and at most doubles each time the stream has filled it, so a
// length prefix far beyond the bytes that follow fails at EOF having
// reserved no more than twice what was delivered. What ReadN allocates in
// all, the buffers it outgrew among it, is at most readStep plus four times
// the bytes delivered.
func ReadN(r io.Reader, n uint64) ([]byte, error) {
	b := make([]byte, min(n, readStep))
	for read := 0; ; {
		if _, err := io.ReadFull(r, b[read:]); err != nil {
			if err == io.EOF && read > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if read = len(b); uint64(read) == n {
			return b, nil
		}
		grown := make([]byte, min(n, 2*uint64(read)))
		copy(grown, b)
		b = grown
	}
}

// ReadUvarint reads one unsigned varint from a stream without consuming any
// byte past it.
func ReadUvarint(r io.Reader) (uint64, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = byteReader{r}
	}
	return binary.ReadUvarint(br)
}

// Uvarints yields the varints packed one after another in b (a long
// template's gaps are such a run), stopping at the end of b or at the first
// varint cut short or past 64 bits. A range loop over it inlines, with
// binary.Uvarint.
func Uvarints(b []byte) iter.Seq[uint64] {
	return func(yield func(uint64) bool) {
		for len(b) > 0 {
			v, n := binary.Uvarint(b)
			if n <= 0 || !yield(v) {
				return
			}
			b = b[n:]
		}
	}
}

// UvarintAt is binary.Uvarint of b[off:]: a packed run read a value at a
// time, by a reader that takes the values a call apart or must say where the
// run goes wrong.
func UvarintAt(b []byte, off int) (uint64, int) { return binary.Uvarint(b[off:]) }

type byteReader struct{ r io.Reader }

func (b byteReader) ReadByte() (byte, error) {
	var one [1]byte
	_, err := io.ReadFull(b.r, one[:])
	return one[0], err
}
