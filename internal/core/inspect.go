package core

import (
	"math"
	"math/bits"

	"flowzip/internal/flow"
	"flowzip/internal/wire"
)

// ColumnInfo is where the bytes of one column of a container went.
type ColumnInfo struct {
	// Section is the dataset the column belongs to, Name the column.
	Section, Name string
	// Values is the number of values the column holds.
	Values int64
	// Bits is what they take as written: in version 3 the codes and the low
	// bits behind them, in versions 1 and 2 the uvarints (raw bytes for
	// template values).
	Bits int64
	// EntropyBits is the order-0 entropy of the values: what a coder that
	// knows nothing but their frequencies could reach, tables excluded.
	EntropyBits float64
	// Mode is how the column is coded: "huffman" over the values, "class" for
	// Huffman-coded bit lengths with raw low bits, "none" for a column of one
	// symbol (zero bits a value) or none; "uvarint" or "raw" in versions 1, 2.
	Mode string
	// TableBytes is the column's table in the header.
	TableBytes int
}

// ContainerInfo describes a container as it is on disk — not as Encode would
// write the archive it decodes to, which for a version 1 or 2 file is another
// size altogether.
type ContainerInfo struct {
	Version  int
	Sections SectionSizes // as decoded; everything behind the body counts as Index
	Columns  []ColumnInfo
}

// forEachValue walks every column value of the archive, recs being its sorted
// time-seq records: template vectors whole through vector, everything else a
// value at a time through visit. columnEncoders is this walk with the
// visitors spelled out.
func (a *Archive) forEachValue(recs []TimeSeqRecord, vector func(col int, f flow.Vector), visit func(col int, v uint64)) {
	for _, t := range a.ShortTemplates {
		vector(colShortF, t)
	}
	for i := range a.LongTemplates {
		vector(colLongF, a.LongTemplates[i].F)
		for _, g := range a.LongTemplates[i].Gaps {
			visit(colGap, uint64(g.Microseconds()))
		}
	}
	clockUS := int64(0)
	for i := range recs {
		delta, tag, rtt, addr := timeSeqFields(&recs[i], &clockUS)
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
// their order-0 entropy.
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
	a.forEachValue(a.TimeSeq,
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
		for v, n := range counts[i] {
			col.Values += n
			switch col.Mode {
			case "raw":
				col.Bits += 8 * n
			case "uvarint":
				col.Bits += 8 * n * int64(max(bits.Len64(v)+6, 7)/7)
			default:
				col.Bits += n * int64(sc.cols[i].Cost(v))
			}
		}
		for _, n := range counts[i] {
			col.EntropyBits += float64(n) * math.Log2(float64(col.Values)/float64(n))
		}
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
	return a, info, nil
}
