package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"flowzip/internal/alloctest"
)

var errTest = errors.New("wiretest: bad input")

func TestCursorFields(t *testing.T) {
	b := binary.AppendUvarint(nil, 300)
	b = binary.AppendUvarint(b, 2) // count of two 3-byte items
	b = append(b, "abcdef"...)
	c := NewCursor(b, errTest)
	if v, err := c.Uvarint("a"); err != nil || v != 300 {
		t.Fatalf("Uvarint = %d, %v", v, err)
	}
	n, err := c.Count("items", 10, 3)
	if err != nil || n != 2 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	items, err := c.Bytes("items", 3*n)
	if err != nil || string(items) != "abcdef" || cap(items) != 6 {
		t.Fatalf("Bytes = %q (cap %d), %v", items, cap(items), err)
	}
	if err := c.Done("record"); err != nil {
		t.Fatalf("Done = %v", err)
	}
}

func TestCursorRejects(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	for name, tc := range map[string]struct {
		in   []byte
		read func(c *Cursor) error
		want string
	}{
		"truncated varint": {[]byte{0x80}, func(c *Cursor) error { _, err := c.Uvarint("field"); return err }, "truncated field"},
		"overlong varint":  {bytes.Repeat([]byte{0xff}, 11), func(c *Cursor) error { _, err := c.Uvarint("field"); return err }, "field varint overflows"},
		"count over limit": {uv(11), func(c *Cursor) error { _, err := c.Count("records", 10, 1); return err }, "records 11 exceeds 10"},
		"count over input": {append(uv(3), 1, 2, 3, 4, 5), func(c *Cursor) error { _, err := c.Count("records", 10, 2); return err }, "records 3 exceeds the 5 bytes"},
		"short bytes":      {[]byte{1, 2, 3}, func(c *Cursor) error { _, err := c.Bytes("hash", 8); return err }, "truncated hash"},
		"trailing bytes":   {[]byte{0}, func(c *Cursor) error { return c.Done("frame") }, "1 trailing bytes after frame"},
	} {
		c := NewCursor(tc.in, errTest)
		err := tc.read(&c)
		if !errors.Is(err, errTest) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %v mentioning %q", name, err, errTest, tc.want)
		}
	}
}

// meteredReader delivers have bytes of a fixed pattern and checks that no
// single Read asks for more than one growth step beyond what it has already
// delivered.
type meteredReader struct {
	t         *testing.T
	have      int
	delivered int
}

func (r *meteredReader) Read(p []byte) (int, error) {
	if len(p) > max(readStep, r.delivered) {
		r.t.Fatalf("ReadN reserved %d more bytes with only %d delivered", len(p), r.delivered)
	}
	n := min(len(p), r.have-r.delivered, 5000) // short reads, like a socket
	if n == 0 {
		return 0, io.EOF
	}
	for i := range p[:n] {
		p[i] = byte(r.delivered + i)
	}
	r.delivered += n
	return n, nil
}

// checkReadN holds ReadN(n) over a stream of have bytes to reading them all
// or failing, and to the allocation bound stated at ReadN.
func checkReadN(t *testing.T, have int, n uint64) {
	t.Helper()
	r := &meteredReader{t: t, have: have}
	var b []byte
	var err error
	alloc := alloctest.Least(func() {
		r.delivered = 0
		b, err = ReadN(r, n)
	})
	if bound := readStep + 4*uint64(r.delivered); alloc > bound {
		t.Fatalf("ReadN(%d) over a %d-byte stream allocated %d, bound %d", n, have, alloc, bound)
	}
	if n > uint64(have) {
		if err == nil || (have > 0 && err != io.ErrUnexpectedEOF) {
			t.Fatalf("ReadN(%d) over a %d-byte stream: %d bytes, err %v", n, have, len(b), err)
		}
		return
	}
	if err != nil || uint64(len(b)) != n || uint64(r.delivered) != n {
		t.Fatalf("ReadN(%d) over a %d-byte stream: %d bytes, %d consumed, err %v", n, have, len(b), r.delivered, err)
	}
	for i := range b {
		if b[i] != byte(i) {
			t.Fatalf("ReadN(%d): byte %d is %#x, want %#x", n, i, b[i], byte(i))
		}
	}
}

func TestReadN(t *testing.T) {
	for _, tc := range []struct {
		have int
		n    uint64
	}{
		{0, 0}, {10, 0}, {10, 10}, {10, 11}, {0, 1}, {readStep, readStep}, {readStep + 1, readStep + 1},
		{5 * readStep, 5*readStep - 3}, {3 * readStep, 1 << 30}, {59, 1<<28 - 1}, {1, math.MaxUint64},
	} {
		checkReadN(t, tc.have, tc.n)
	}
}

func TestReadUvarint(t *testing.T) {
	in := append(binary.AppendUvarint(nil, 1<<40), 0xaa)
	// Through a reader with no ReadByte, the byte after the varint must stay
	// unread.
	r := io.MultiReader(bytes.NewReader(in))
	v, err := ReadUvarint(r)
	rest, _ := io.ReadAll(r)
	if err != nil || v != 1<<40 || !bytes.Equal(rest, []byte{0xaa}) {
		t.Fatalf("ReadUvarint = %d, %v, leaving %x", v, err, rest)
	}
	if _, err := ReadUvarint(bytes.NewReader([]byte{0x80})); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated stream varint: err = %v", err)
	}
}

// errorAllocMax is the bound stated at Cursor on what a primitive that fails
// allocates: its error.
const errorAllocMax = 1 << 10

// FuzzCursor drives a cursor over data with the primitives ops selects and
// checks after every step that no primitive panics, hands out more bytes
// than remain, accepts a count above its limit or above what the remaining
// bytes can hold, or returns a value the field cannot, and that the steps
// together allocate no more than errorAllocMax for each that failed; then
// reads a stream of have bytes behind a claimed length n through ReadN
// (checkReadN).
func FuzzCursor(f *testing.F) {
	maxU64 := binary.AppendUvarint(nil, math.MaxUint64)
	f.Add([]byte{}, []byte{0, 1, 2, 3, 4, 5, 6}, uint64(0), uint8(0), uint32(0), uint64(0))
	f.Add([]byte{0x80}, []byte{0}, uint64(1), uint8(1), uint32(1), uint64(1))                             // truncated varint
	f.Add([]byte{0x80, 0x80, 0x80}, []byte{3, 0}, uint64(9), uint8(4), uint32(100), uint64(99))           // truncated varint
	f.Add(bytes.Repeat([]byte{0xff}, 10), []byte{0, 1, 2}, uint64(5), uint8(2), uint32(70000), uint64(7)) // 10-byte overlong varint
	f.Add(append(bytes.Repeat([]byte{0x80}, 10), 1), []byte{5, 5}, uint64(5), uint8(1), uint32(0), uint64(1<<28-1))
	f.Add(maxU64, []byte{0}, uint64(math.MaxUint64), uint8(1), uint32(59), uint64(1<<28-1))
	f.Add(append(maxU64, maxU64...), []byte{2, 5}, uint64(1<<28), uint8(16), uint32(1<<17), uint64(1<<17+1))
	f.Add([]byte{3, 'a', 'b', 'c', 2, 9, 9}, []byte{3, 4, 3, 4, 6}, uint64(8), uint8(1), uint32(200000), uint64(150000))
	f.Fuzz(func(t *testing.T, data, ops []byte, limit uint64, minItem uint8, have uint32, n uint64) {
		minItemBytes := int(minItem)%32 + 1
		var failed uint64
		alloc := alloctest.Least(func() {
			failed = 0
			c := NewCursor(data, errTest)
			for _, op := range ops {
				before := c.Len()
				var err error
				switch op % 4 {
				case 0:
					_, err = c.Uvarint("field")
				case 1:
					var v uint64
					if v, err = c.UvarintMax("field", limit); err == nil && v > limit {
						t.Fatalf("UvarintMax(%d) returned %d", limit, v)
					}
				case 2:
					var k int
					if k, err = c.Count("items", limit, minItemBytes); err == nil &&
						(uint64(k) > limit || k > c.Len()/minItemBytes) {
						t.Fatalf("Count(limit %d, min %d) accepted %d with %d bytes left", limit, minItemBytes, k, c.Len())
					}
				case 3:
					want := int(limit % 64)
					var b []byte
					if b, err = c.Bytes("bytes", want); err == nil && (len(b) != want || c.Len() != before-want) {
						t.Fatalf("Bytes(%d) returned %d bytes and consumed %d", want, len(b), before-c.Len())
					}
				}
				if c.Len() > before || c.Len() < 0 {
					t.Fatalf("op %d moved the cursor from %d to %d bytes left", op%4, before, c.Len())
				}
				if err != nil && !errors.Is(err, errTest) {
					t.Fatalf("op %d: error %v does not wrap the sentinel", op%4, err)
				}
				if err != nil {
					failed++
				}
			}
			if err := c.Done("input"); (err == nil) != (c.Len() == 0) {
				t.Fatalf("Done = %v with %d bytes left", err, c.Len())
			} else if err != nil {
				failed++
			}
		})
		if bound := failed * errorAllocMax; alloc > bound {
			t.Fatalf("%d steps, %d of them failing, allocated %d bytes, bound %d", len(ops)+1, failed, alloc, bound)
		}
		checkReadN(t, int(have%(1<<19)), n)
	})
}
