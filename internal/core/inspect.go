package core

import (
	"bytes"
	"math"
	"math/bits"

	"flowzip/internal/flow"
	"flowzip/internal/wire"
)

// ColumnInfo is where the bytes of one column of a container went.
type ColumnInfo struct {
	// Section is the dataset the column belongs to ("footer index" for the
	// postings columns), Name the column.
	Section, Name string
	// Values is the number of values the column holds.
	Values int64
	// Bits is what they take as written: from version 3 on the codes and the
	// low bits behind them, in versions 1 and 2 the uvarints (raw bytes for
	// template values).
	Bits int64
	// EntropyBits is the order-0 entropy of the values as coded (the address
	// symbols of a version 4 time-seq, not the indexes they stand for): what a
	// coder that knows nothing but their frequencies could reach, tables
	// excluded.
	EntropyBits float64
	// Mode is how the column is coded: "huffman" over the values, "class" for
	// Huffman-coded bit lengths with raw low bits, "none" for a column of one
	// symbol (zero bits a value) or none; "uvarint" or "raw" in versions 1, 2.
	Mode string
	// TableBytes is the column's table: in the header, or for a postings
	// column in the footer.
	TableBytes int
}

// ContainerInfo describes a container as it is on disk — not as Encode would
// write the archive it decodes to, which for an older version is another size
// altogether.
type ContainerInfo struct {
	Version  int
	Sections SectionSizes // as decoded; everything behind the body counts as Index
	// Columns holds the seven body columns in header order and, for an
	// indexed version 4 container, the three postings columns of its footer.
	Columns []ColumnInfo
}

// forEachValue walks every column value of the archive as a container of the
// given version writes it, recs being its sorted time-seq records: template
// vectors whole through vector, everything else a value at a time through
// visit. columnEncoders is this walk for the current version with the
// visitors spelled out.
func (a *Archive) forEachValue(recs []TimeSeqRecord, version byte, vector func(col int, f flow.Vector), visit func(col int, v uint64)) {
	for _, t := range a.ShortTemplates {
		vector(colShortF, t)
	}
	for i := range a.LongTemplates {
		vector(colLongF, a.LongTemplates[i].F)
		for _, g := range a.LongTemplates[i].Gaps {
			visit(colGap, uint64(g.Microseconds()))
		}
	}
	clockUS, next := int64(0), new(uint32)
	if version < 4 {
		next = nil // the address column is the index itself
	}
	for i := range recs {
		delta, tag, rtt, addr := timeSeqFields(&recs[i], &clockUS, next)
		visit(colDelta, delta)
		visit(colTag, tag)
		if tag&1 == 0 {
			visit(colRTT, rtt)
		}
		visit(colAddr, addr)
	}
}

// columnSections names the dataset of each column.
var columnSections = [numColumns]string{"short templates", "long templates", "long templates", "time-seq", "time-seq", "time-seq", "time-seq"}

// Inspect decodes the container held in b like Decode and reports, beside the
// archive, the container's version, its section sizes as they are in b, and
// per column how many values it holds, the bits they take as written and
// their order-0 entropy. An indexed version 4 container is also opened as a
// Reader would open it, for the footer's postings columns.
func Inspect(b []byte) (*Archive, *ContainerInfo, error) {
	c := wire.NewCursor(b, ErrBadArchive)
	a, sc, err := decodeSections(&c, &c, &c, &c, &c)
	if err != nil {
		return nil, nil, err
	}
	info := &ContainerInfo{Version: int(sc.version), Sections: sc.sizes, Columns: make([]ColumnInfo, numColumns)}
	info.Sections.Index = int64(c.Len())

	var counts [numColumns]map[uint64]int64
	for i := range counts {
		counts[i] = map[uint64]int64{}
	}
	a.forEachValue(a.TimeSeq, sc.version,
		func(col int, f flow.Vector) {
			for _, v := range f {
				counts[col][uint64(v)]++
			}
		},
		func(col int, v uint64) { counts[col][v]++ })
	for i := range info.Columns {
		col := &info.Columns[i]
		col.Section, col.Name, col.TableBytes = columnSections[i], columns[i].what, sc.tables[i]
		switch {
		case sc.cols != nil:
			col.Mode = sc.cols[i].Mode()
		case i == colShortF || i == colLongF:
			col.Mode = "raw"
		default:
			col.Mode = "uvarint"
		}
		var dec *wire.Decoder
		if sc.cols != nil {
			dec = sc.cols[i]
		}
		col.count(counts[i], dec)
	}
	if sc.cols == nil {
		// Versions 1 and 2 write an rtt of zero for every long flow.
		long := int64(0)
		for i := range a.TimeSeq {
			if a.TimeSeq[i].Long {
				long++
			}
		}
		info.Columns[colRTT].Bits += 8 * long
	}

	if sc.indexed && sc.version == containerVersion {
		r, err := OpenReader(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			return nil, nil, err
		}
		var counts [numPostingCols]map[uint64]int64
		for i := range counts {
			counts[i] = map[uint64]int64{}
		}
		forEachPosting(r.idx.postings, func(col int, v uint64) { counts[col][v]++ })
		for i, dec := range r.idx.cols {
			col := ColumnInfo{Section: "footer index", Name: postingColumns[i], Mode: dec.Mode(), TableBytes: r.idx.tables[i]}
			col.count(counts[i], dec)
			info.Columns = append(info.Columns, col)
		}
	}
	return a, info, nil
}

// count fills in the values, their bits as written — through dec, or as
// col.Mode says for a version 1 or 2 column (dec nil) — and their entropy.
func (col *ColumnInfo) count(counts map[uint64]int64, dec *wire.Decoder) {
	for v, n := range counts {
		col.Values += n
		switch col.Mode {
		case "raw":
			col.Bits += 8 * n
		case "uvarint":
			col.Bits += 8 * n * int64(max(bits.Len64(v)+6, 7)/7)
		default:
			col.Bits += n * int64(dec.Cost(v))
		}
	}
	for _, n := range counts {
		col.EntropyBits += float64(n) * math.Log2(float64(col.Values)/float64(n))
	}
}
