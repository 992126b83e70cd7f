package core

import (
	"bytes"
	"fmt"
	"math"

	"flowzip/internal/wire"
)

// ColumnInfo is where the bytes of one column of a container went.
type ColumnInfo struct {
	// Section is the dataset the column belongs to ("footer index" for the
	// footer's columns), Name the column.
	Section, Name string
	// Values is the number of values the column holds.
	Values int64
	// Bits is what they take as written: the codes and the low bits behind
	// them — in an rANS run the cost under the stored frequencies, fractions
	// of a bit included, and the run's flush not.
	Bits float64
	// EntropyBits is the entropy of the values as coded (the address symbols
	// and, where flagged, the template symbols, not the indexes they stand
	// for) under the context each is coded under: what a coder that knows
	// nothing but their frequencies in each context could reach, tables
	// excluded. A template value's context is its place, for the last two
	// values of a template, and the value before it for any other
	// (wire.ChainContext), and a gap's the value it leads to (a long
	// template's RTT, under flagRTTGaps, is context 0); every other column has
	// one context, so its entropy is order-0.
	EntropyBits float64
	// Mode is how the column is coded: "huffman" over the values, "class" for
	// Huffman-coded bit lengths with raw low bits, "none" for a column of one
	// symbol (zero bits a value) or none, "mixed" for a context column whose
	// tables differ; "rans" for an f column whose values go through an rANS
	// state, whatever its tables' shapes.
	Mode string
	// Tables is the number of tables the column is coded with: one per
	// context that holds values for a template column and one for any other
	// column.
	Tables int
	// TableBytes is what the column's tables take: in the header, or for a
	// footer column in the footer.
	TableBytes int
}

// ContainerInfo describes a container as it is on disk.
type ContainerInfo struct {
	Version  int
	Sections SectionSizes // as decoded; everything behind the body counts as Index
	// Flushes is what the rANS state flushes take in each template section,
	// wire.RANSFlush bytes a run — a long template, a group of short ones —
	// when the section's f column is rANS-coded; none elsewhere.
	Flushes SectionSizes
	// Columns holds the eight body columns in header order and, for an
	// indexed container, the columns of its footer: template and template
	// group offsets, group entries and postings.
	Columns []ColumnInfo
}

// forEachValue walks every column value of the archive as the container
// writes it, with the new-template symbols or without, its long template gaps
// as gaps says (gapModel.walk) and rtts holds each template's RTT under the
// RTT flag, recs being its sorted time-seq records, with the context it is
// coded under (0 for a column of one context). columnEncoders is this walk
// with the visitor spelled out.
func (a *Archive) forEachValue(recs []TimeSeqRecord, newTemplates bool, gaps *gapModel, rtts []uint64, visit func(col, ctx int, v uint64)) {
	chain := func(col int, f []byte) {
		for i, v := range f {
			visit(col, wire.ChainContext(f, i), uint64(v))
		}
	}
	gap := func(ctx int, v uint64) { visit(colGap, ctx, v) }
	var us []uint64
	for _, t := range a.ShortTemplates {
		visit(colShortLen, 0, uint64(len(t)))
		chain(colShortF, t)
	}
	for i := range a.LongTemplates {
		t := &a.LongTemplates[i]
		chain(colLongF, t.F)
		r := uint64(0)
		if gaps.rtt {
			r = rtts[i]
		}
		us = appendGapsUS(us[:0], t)
		gaps.walk(t, us, r, gap)
	}
	s := timeSeqState{templates: newTemplates}
	for i := range recs {
		delta, tag, rtt, addr := s.fields(&recs[i])
		visit(colDelta, 0, delta)
		visit(colTag, 0, tag)
		if tag&1 == 0 {
			visit(colRTT, 0, rtt)
		}
		visit(colAddr, 0, addr)
	}
}

// columnSections names the dataset of each column.
var columnSections = [numColumns]string{"short templates", "long templates", "long templates", "short templates", "time-seq", "time-seq", "time-seq", "time-seq"}

// coded is a value under its context, what Inspect counts.
type coded struct {
	ctx int
	v   uint64
}

// Inspect decodes the container held in b like Decode and reports, beside the
// archive, the container's version, its section sizes as they are in b, and
// per column how many values it holds, the bits they take as written, their
// entropy under the contexts they are coded in and the tables they are coded
// with, and the bytes the rANS runs' flushes take. The tag column's name says
// when the header flags the new-template symbols, and its entropy is then that
// of the symbols; the gap column's says when the header flags RTT-coded gaps,
// and it then holds the RTTs, under context 0, and the residuals. An indexed
// container is also opened as a Reader would open it, for the
// footer's columns; the postings first-group column's name says which
// prediction its values are coded from, and its entropy is theirs.
func Inspect(b []byte) (*Archive, *ContainerInfo, error) {
	c := wire.NewCursor(b, ErrBadArchive)
	a, sc, err := decodeSections(&c)
	if err != nil {
		return nil, nil, err
	}
	info := &ContainerInfo{Version: containerVersion, Sections: sc.sizes, Columns: make([]ColumnInfo, numColumns)}
	info.Sections.Index = int64(c.Len())

	var counts [numColumns]map[coded]int64
	for i := range counts {
		counts[i] = map[coded]int64{}
	}
	a.forEachValue(a.TimeSeq, sc.newTemplates, &sc.gaps, sc.rtts, func(col, ctx int, v uint64) { counts[col][coded{ctx, v}]++ })
	for i := range info.Columns {
		col := &info.Columns[i]
		col.Section, col.Name, col.TableBytes = columnSections[i], columns[i].what, sc.tables[i]
		switch {
		case i == colTag && sc.newTemplates:
			col.Name += " (flag: new-template symbols)"
		case i == colGap && sc.gaps.rtt:
			col.Name += " (flag: RTT residuals)"
		}
		var cost func(ctx int, v uint64) float64
		if i < numContextCols {
			tpl := sc.tpl[i]
			col.Mode, col.Tables = tpl.Mode(), tpl.Tables()
			cost = func(ctx int, v uint64) float64 { return tpl.For(ctx).Cost(v) }
			if sc.rans[i] {
				col.Mode = "rans"
			}
		} else {
			dec := sc.cols[i]
			col.Mode, col.Tables = dec.Mode(), 1
			cost = func(_ int, v uint64) float64 { return dec.Cost(v) }
		}
		col.count(counts[i], cost)
	}
	if sc.rans[colShortF] { // one flush a group
		info.Flushes.ShortTemplates = int64((len(a.ShortTemplates) + sc.shortGroupSize - 1) / sc.shortGroupSize * wire.RANSFlush)
	}
	if sc.rans[colLongF] {
		info.Flushes.LongTemplates = int64(len(a.LongTemplates) * wire.RANSFlush)
	}

	if sc.indexed {
		r, err := OpenReader(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			return nil, nil, err
		}
		x := r.idx
		var counts [numFooterCols]map[coded]int64
		for i := range counts {
			counts[i] = map[coded]int64{}
		}
		x.forEachValue(func(col int, previous, fresh uint64) {
			if x.pred == predFresh {
				previous = fresh
			}
			counts[col][coded{0, previous}]++
		})
		for i, dec := range x.cols {
			if dec == nil {
				continue
			}
			col := ColumnInfo{Section: "footer index", Name: footerColumns[i], Mode: dec.Mode(), Tables: 1, TableBytes: x.tables[i]}
			if i == postFirst {
				col.Name += fmt.Sprintf(" (prediction %d: %s)", x.pred, predictions[x.pred])
			}
			col.count(counts[i], func(_ int, v uint64) float64 { return dec.Cost(v) })
			info.Columns = append(info.Columns, col)
		}
	}
	return a, info, nil
}

// count fills in the values, their bits as written, at cost bits each, and
// their entropy under their contexts.
func (col *ColumnInfo) count(counts map[coded]int64, cost func(ctx int, v uint64) float64) {
	perContext := map[int]int64{}
	for k, n := range counts {
		col.Values += n
		perContext[k.ctx] += n
		col.Bits += float64(n) * cost(k.ctx, k.v)
	}
	for k, n := range counts {
		col.EntropyBits += float64(n) * math.Log2(float64(perContext[k.ctx])/float64(n))
	}
}
