package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/obs"
	"flowzip/internal/pkt"
	"flowzip/internal/radix"
	"flowzip/internal/stats"
	"flowzip/internal/trace"
	"flowzip/internal/wire"
)

// FlowFilter selects flows from an indexed archive. The zero value matches
// every flow.
type FlowFilter struct {
	// Prefix and PrefixLen select flows whose server address lies under the
	// given IPv4 prefix (the 5-tuple-prefix query of the read path).
	// PrefixLen 0 matches every address.
	Prefix    pkt.IPv4
	PrefixLen int
	// From and To select flows whose first-packet timestamp lies in
	// [From, To). To of 0 leaves the window open-ended.
	From time.Duration
	To   time.Duration
}

// Validate rejects malformed filters.
func (f FlowFilter) Validate() error {
	if f.PrefixLen < 0 || f.PrefixLen > 32 {
		return fmt.Errorf("core: prefix length %d out of range", f.PrefixLen)
	}
	if f.From < 0 || f.To < 0 {
		return fmt.Errorf("core: negative time window [%v, %v)", f.From, f.To)
	}
	if f.To != 0 && f.To <= f.From {
		return fmt.Errorf("core: empty time window [%v, %v)", f.From, f.To)
	}
	return nil
}

// matchTime reports whether a flow starting at ts lies in the window.
func (f FlowFilter) matchTime(ts time.Duration) bool {
	return ts >= f.From && (f.To == 0 || ts < f.To)
}

// matchAddr reports whether ip lies under the filter prefix.
func (f FlowFilter) matchAddr(ip pkt.IPv4) bool {
	if f.PrefixLen == 0 {
		return true
	}
	mask := ^uint32(0) << uint(32-f.PrefixLen)
	return uint32(ip)&mask == uint32(f.Prefix)&mask
}

// ReaderStats counts the I/O a Reader performed, cumulatively since open.
type ReaderStats struct {
	// BytesRead is everything fetched from the underlying ReaderAt,
	// including the open-time header, address and footer reads.
	BytesRead int64
	// OpenBytes is the fixed open-time cost: header section (column tables
	// included), address section and footer index.
	OpenBytes int64
	// BodyBytesRead is the flow data decoded on behalf of queries:
	// time-seq groups and templates, each group and template at most once
	// per Reader. This is the "bytes decoded" a selective query saves
	// relative to a full decode.
	BodyBytesRead int64
	// GroupsDecoded and TemplatesLoaded count index-directed partial reads:
	// each group at most once per Reader, and likewise each template.
	GroupsDecoded   int
	TemplatesLoaded int
	// FlowsMatched counts flows returned by ExtractFlows calls.
	FlowsMatched int
}

// IndexStats describes the footer index of an open archive.
type IndexStats struct {
	GroupSize int
	Groups    int
	Flows     int
	Addresses int
	// ShortTemplates and LongTemplates are the indexed template counts.
	ShortTemplates int
	LongTemplates  int
	// IndexBytes is the footer size (payload plus trailer), BodyBytes the
	// body in front of it, ArchiveBytes the whole container.
	IndexBytes   int64
	BodyBytes    int64
	ArchiveBytes int64
	Sections     SectionSizes
}

// countingReaderAt counts bytes fetched through an io.ReaderAt.
type countingReaderAt struct {
	r io.ReaderAt
	n atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.n.Add(int64(n))
	return n, err
}

// Reader is the indexed read path over an archive with a footer index: it
// opens the container through an io.ReaderAt by reading only the header, the
// address dataset and the footer index, then serves selective decodes
// (ExtractFlows) that fetch just the flow groups and templates they touch.
// Full decodes go through Decode and the Decompressor instead. A flow group,
// like a template, is paid for once: the first query to touch it reads and
// validates it, and its records (32 B per flow) stay until Close. A Reader is
// safe for concurrent use.
type Reader struct {
	src    *countingReaderAt
	size   int64
	closer io.Closer

	idx   *archiveIndex
	codec *sectionCodec // how the body sections decode, from the header
	opts  Options

	// Absolute offsets of the body sections.
	shortOff, longOff, addrOff, timeseqOff int64

	addrs []pkt.IPv4
	tree  *radix.Tree // /32 per address, next hop = address id

	// The span tracer, attached with SetTracer before the first query (it
	// is not synchronized with in-flight queries).
	tracer *obs.Tracer

	mu sync.Mutex
	// arch holds the lazily loaded template caches (plus addresses and
	// options) in Archive shape so the decompressor machinery applies
	// unchanged; TimeSeq stays empty.
	arch        *Archive
	shortLoaded []bool
	longLoaded  []bool
	// groupRecs[g] holds group g's records once a query has touched it;
	// rngAt[g] is the identity RNG in front of group g, for the prefix of
	// groups any query has reached.
	groupRecs  [][]TimeSeqRecord
	rngAt      []stats.RNG
	bodyBytes  int64
	openBytes  int64
	groupsRead int
	tplRead    int
	flowsOut   int
}

// OpenReader opens an indexed archive of the given size through src. Only the
// header (with the column tables every later read decodes by), the address
// dataset and the footer index are read — the flow body stays on storage
// until a query touches it. An archive without a footer returns ErrNoIndex
// (decode it with Decode); a corrupt footer returns ErrBadIndex.
func OpenReader(src io.ReaderAt, size int64) (*Reader, error) {
	r := &Reader{src: &countingReaderAt{r: src}, size: size}
	if err := r.open(); err != nil {
		return nil, err
	}
	r.groupRecs = make([][]TimeSeqRecord, len(r.idx.groups))
	r.rngAt = []stats.RNG{*stats.NewRNG(modelSeed)}
	return r, nil
}

// OpenReaderFile opens an indexed archive file; Close releases it.
func OpenReaderFile(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := OpenReader(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// SetTracer attaches a span tracer to the reader's queries (nil
// detaches). Attach before the first query.
func (r *Reader) SetTracer(t *obs.Tracer) {
	r.tracer = t
	if t != nil {
		t.NameThread(0, "reader")
	}
}

// Close drops the group records the Reader kept and releases the underlying
// file, when the Reader owns one.
func (r *Reader) Close() error {
	r.mu.Lock()
	clear(r.groupRecs)
	r.mu.Unlock()
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}

// readAt fetches an exact range.
func (r *Reader) readAt(off, n int64) ([]byte, error) {
	if n < 0 || off < 0 || off+n > r.size {
		return nil, fmt.Errorf("%w: read [%d,%d) outside %d-byte container", ErrBadIndex, off, off+n, r.size)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(io.NewSectionReader(r.src, off, n), b); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadIndex, err)
	}
	return b, nil
}

func (r *Reader) open() error {
	if r.size < int64(len(magic))+1+trailerLen {
		return fmt.Errorf("%w: %d-byte container", ErrBadArchive, r.size)
	}
	// Magic, version and flags byte.
	head, err := r.readAt(0, int64(len(magic))+2)
	if err != nil {
		return err
	}
	if [4]byte(head[:4]) != magic {
		return ErrBadArchive
	}
	switch version, flags := head[4], head[5]; {
	case version != containerVersion:
		return unsupportedVersion(version)
	case flags&flagIndexed == 0:
		return ErrNoIndex
	}

	// Self-locating trailer, then the CRC-protected payload above it.
	tb, err := r.readAt(r.size-trailerLen, trailerLen)
	if err != nil {
		return err
	}
	if [4]byte(tb[8:12]) != indexMagic {
		return fmt.Errorf("%w: footer magic missing", ErrBadIndex)
	}
	plen := int64(binary.LittleEndian.Uint32(tb[4:8]))
	if plen > r.size-trailerLen-int64(len(magic))-1 {
		return fmt.Errorf("%w: footer of %d bytes in %d-byte container", ErrBadIndex, plen, r.size)
	}
	payload, err := r.readAt(r.size-trailerLen-plen, plen)
	if err != nil {
		return err
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(tb[0:4]); got != want {
		return fmt.Errorf("%w: footer checksum %08x, want %08x", ErrBadIndex, got, want)
	}
	if r.idx, err = parseArchiveIndex(payload, r.size, head[5]&flagNewTemplates != 0); err != nil {
		return err
	}
	r.idx.sections.Index = plen + trailerLen

	// arch holds the header fields and addresses now, and the template
	// caches as queries fill them.
	r.arch = &Archive{
		ShortTemplates: make([]flow.Vector, r.idx.shorts),
		LongTemplates:  make([]LongTemplate, len(r.idx.longOffs)),
		Index:          IndexConfig{Enabled: true, GroupSize: r.idx.groupSize},
	}
	hb, err := r.readAt(0, r.idx.sections.Header)
	if err != nil {
		return err
	}
	hc := wire.NewCursor(hb, ErrBadIndex)
	if r.codec, err = decodeHeader(&hc, r.arch); err != nil {
		return err
	}
	if err := hc.Done("header section"); err != nil {
		return err
	}
	r.opts = r.arch.Opts

	r.shortOff = r.idx.sections.Header
	r.longOff = r.shortOff + r.idx.sections.ShortTemplates
	r.addrOff = r.longOff + r.idx.sections.LongTemplates
	r.timeseqOff = r.addrOff + r.idx.sections.Addresses

	// Address dataset: small (unique servers), needed by every query, so it
	// loads eagerly and doubles as the radix index's key set.
	ab, err := r.readAt(r.addrOff, r.idx.sections.Addresses)
	if err != nil {
		return err
	}
	ac := wire.NewCursor(ab, ErrBadIndex)
	if r.addrs, err = decodeAddresses(&ac); err != nil {
		return err
	}
	if err := ac.Done("address section"); err != nil {
		return err
	}
	if len(r.addrs) != len(r.idx.postings) {
		return fmt.Errorf("%w: body has %d addresses, index %d", ErrBadIndex, len(r.addrs), len(r.idx.postings))
	}
	r.arch.Addresses = r.addrs
	r.tree = radix.New()
	for i, ip := range r.addrs {
		if err := r.tree.Insert(uint32(ip), 32, uint32(i)); err != nil {
			return err
		}
		// Insert replaces an existing /32 without counting a new entry, so
		// the entry count tells a duplicate apart in the same walk.
		if r.tree.Len() != i+1 {
			return fmt.Errorf("%w: duplicate address %v", ErrBadIndex, ip)
		}
	}
	r.shortLoaded = make([]bool, len(r.idx.shortOffs)) // by group
	r.longLoaded = make([]bool, len(r.idx.longOffs))
	r.openBytes = r.src.n.Load()
	return nil
}

// Flows returns the archive's flow count, from the index.
func (r *Reader) Flows() int { return r.idx.flows }

// IndexStats describes the footer index.
func (r *Reader) IndexStats() IndexStats {
	s := r.idx.sections
	return IndexStats{
		GroupSize:      r.idx.groupSize,
		Groups:         len(r.idx.groups),
		Flows:          r.idx.flows,
		Addresses:      len(r.addrs),
		ShortTemplates: r.idx.shorts,
		LongTemplates:  len(r.idx.longOffs),
		IndexBytes:     s.Index,
		BodyBytes:      s.Total() - s.Index,
		ArchiveBytes:   r.size,
		Sections:       s,
	}
}

// Stats returns the cumulative I/O counters.
func (r *Reader) Stats() ReaderStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReaderStats{
		BytesRead:       r.src.n.Load(),
		OpenBytes:       r.openBytes,
		BodyBytesRead:   r.bodyBytes,
		GroupsDecoded:   r.groupsRead,
		TemplatesLoaded: r.tplRead,
		FlowsMatched:    r.flowsOut,
	}
}

// sectionEnd returns the offset one past template i in a section described
// by offs and sectionLen.
func sectionEnd(offs []int64, i int, sectionLen int64) int64 {
	if i+1 < len(offs) {
		return offs[i+1]
	}
	return sectionLen
}

// parseShortGroup installs short template group g from exactly its bytes b.
// A group that fails keeps none of its templates.
func (r *Reader) parseShortGroup(g int, b []byte) error {
	lo := g * r.idx.groupSize
	tpls := r.arch.ShortTemplates[lo:min(lo+r.idx.groupSize, r.idx.shorts)]
	c := wire.NewCursor(b, ErrBadIndex)
	err := r.codec.shortGroup(&c, tpls)
	if err == nil {
		err = c.Done("short template group")
	}
	if err != nil {
		clear(tpls)
		return fmt.Errorf("short template group %d: %w", g, err)
	}
	r.shortLoaded[g] = true
	r.tplRead += len(tpls)
	return nil
}

// parseLong installs long template id from exactly its bytes b.
func (r *Reader) parseLong(id int, b []byte) error {
	c := wire.NewCursor(b, ErrBadIndex)
	t, _, err := r.codec.longTemplate(&c)
	if err == nil {
		err = c.Done("long template")
	}
	if err != nil {
		return fmt.Errorf("long template %d: %w", id, err)
	}
	r.arch.LongTemplates[id] = t
	r.longLoaded[id] = true
	r.tplRead++
	return nil
}

// loadTemplateRuns fetches the listed missing long template ids, or short
// template group ids, coalescing consecutive ids into one range read each:
// they are laid out back-to-back in id order, so a run of adjacent ids is one
// contiguous span of the section and every one in it parses out of the shared
// buffer.
// ids may repeat and arrive unsorted; a repeated id loads once. Callers hold
// r.mu.
func (r *Reader) loadTemplateRuns(ids []int, offs []int64, base, sectionLen int64, parse func(id int, b []byte) error) error {
	if len(ids) == 0 {
		return nil
	}
	sort.Ints(ids)
	for i := 0; i < len(ids); {
		lo := ids[i]
		hi := lo
		for i++; i < len(ids); i++ {
			if ids[i] == hi+1 {
				hi++
			} else if ids[i] != hi { // a repeated id is already in the run
				break
			}
		}
		off := offs[lo]
		end := sectionEnd(offs, hi, sectionLen)
		b, err := r.readAt(base+off, end-off)
		if err != nil {
			return err
		}
		r.bodyBytes += int64(len(b))
		for id := lo; id <= hi; id++ {
			s, e := offs[id]-off, sectionEnd(offs, id, sectionLen)-off
			if s < 0 || e < s || e > int64(len(b)) {
				return fmt.Errorf("%w: template %d spans [%d,%d) of %d-byte run", ErrBadIndex, id, s, e, len(b))
			}
			if err := parse(id, b[s:e]); err != nil {
				return err
			}
		}
	}
	return nil
}

// selectGroups returns the ids of the flow groups a filter can touch,
// ascending: the time window prunes by the group first/last timestamps, the
// address prefix prunes through the radix index and the per-address group
// postings. The result may alias the index and is read-only.
func (r *Reader) selectGroups(f FlowFilter) []uint32 {
	groups := r.idx.groups
	// Both firstUS and lastUS are non-decreasing across groups, so the time
	// window selects a contiguous group range.
	lo := 0
	if f.From > 0 {
		lo = sort.Search(len(groups), func(i int) bool {
			return time.Duration(groups[i].lastUS)*time.Microsecond >= f.From
		})
	}
	hi := len(groups)
	if f.To > 0 {
		hi = sort.Search(len(groups), func(i int) bool {
			return time.Duration(groups[i].firstUS)*time.Microsecond >= f.To
		})
	}
	if lo >= hi {
		return nil
	}
	if f.PrefixLen == 32 { // one address: its postings are the group list
		id, ok := r.tree.Lookup(uint32(f.Prefix))
		if !ok {
			return nil
		}
		p := r.idx.postings[id]
		from, _ := slices.BinarySearch(p, uint32(lo))
		to, _ := slices.BinarySearch(p, uint32(hi))
		return p[from:to]
	}
	ids := make([]uint32, 0, hi-lo)
	if f.PrefixLen == 0 {
		for g := lo; g < hi; g++ {
			ids = append(ids, uint32(g))
		}
		return ids
	}
	sel := make([]bool, len(groups))
	r.tree.WalkPrefix(uint32(f.Prefix), f.PrefixLen, func(_ uint32, _ int, addrID uint32) {
		for _, g := range r.idx.postings[addrID] {
			sel[g] = true
		}
	})
	for g := lo; g < hi; g++ {
		if sel[g] {
			ids = append(ids, uint32(g))
		}
	}
	return ids
}

// loadGroup returns flow group g's records, read, decoded and validated the
// first time a query touches the group and kept from then on. A failed load
// keeps nothing, so a corrupt group fails every time. Callers hold r.mu.
func (r *Reader) loadGroup(g int) ([]TimeSeqRecord, error) {
	if recs := r.groupRecs[g]; recs != nil {
		return recs, nil
	}
	gi := r.idx.groups[g]
	end := int64(r.idx.sections.TimeSeq)
	if g+1 < len(r.idx.groups) {
		end = r.idx.groups[g+1].off
	}
	b, err := r.readAt(r.timeseqOff+gi.off, end-gi.off)
	if err != nil {
		return nil, err
	}
	r.bodyBytes += int64(len(b))
	r.groupsRead++
	c := wire.NewCursor(b, ErrBadIndex)
	// The footer's count sizes the slice, so the group's bytes must bear it
	// out, at most wire.MaxItemsPerByte records a byte.
	if _, err := c.Run("time-seq count", gi.count, false); err != nil {
		return nil, fmt.Errorf("group %d: %w", g, err)
	}
	recs := make([]TimeSeqRecord, gi.count)
	clock := time.Duration(r.idx.baseUS(g)) * time.Microsecond
	var next [numNew]uint32
	for k, n := range gi.next {
		next[k] = uint32(n)
	}
	err = r.codec.group(&c, recs, &clock, &next)
	if err == nil {
		err = c.Done("the group's records")
	}
	if err != nil {
		return nil, fmt.Errorf("group %d: %w", g, err)
	}
	for k, n := range next {
		if n := int(n) - gi.next[k]; n != gi.fresh[k] {
			return nil, fmt.Errorf("%w: group %d introduces %d new %s, index says %d", ErrBadIndex, g, n, newNames[k], gi.fresh[k])
		}
	}
	for j := range recs {
		rec := &recs[j]
		if int(rec.Addr) >= len(r.addrs) {
			return nil, fmt.Errorf("%w: group %d references address %d of %d", ErrBadIndex, g, rec.Addr, len(r.addrs))
		}
		tplCount := r.idx.shorts
		if rec.Long {
			tplCount = len(r.idx.longOffs)
		}
		if int(rec.Template) >= tplCount {
			return nil, fmt.Errorf("%w: group %d references template %d of %d", ErrBadIndex, g, rec.Template, tplCount)
		}
	}
	if first, want := recs[0].FirstTS, time.Duration(gi.firstUS)*time.Microsecond; first != want {
		return nil, fmt.Errorf("%w: group %d starts at %v, index says %v", ErrBadIndex, g, first, want)
	}
	if want := time.Duration(gi.lastUS) * time.Microsecond; clock != want {
		return nil, fmt.Errorf("%w: group %d ends at %v, index says %v", ErrBadIndex, g, clock, want)
	}
	r.groupRecs[g] = recs
	return recs, nil
}

// rngBefore returns the identity RNG in front of group g's first record,
// extending rngAt on demand: a record's draws are skipped once per Reader,
// not once per query. Callers hold r.mu.
func (r *Reader) rngBefore(g int) stats.RNG {
	for n := len(r.rngAt); n <= g; n++ {
		rng := r.rngAt[n-1]
		rngSkipRecords(&rng, r.idx.groups[n-1].count)
		r.rngAt = append(r.rngAt, rng)
	}
	return r.rngAt[g]
}

// matchedCursors returns one cursor per record of the listed groups matching
// f, in record order, and the packets they will emit.
func (r *Reader) matchedCursors(groups []uint32, f FlowFilter) ([]flowCursor, int64, error) {
	match := func(rec *TimeSeqRecord) bool {
		return f.matchTime(rec.FirstTS) && f.matchAddr(r.addrs[rec.Addr])
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// First pass: count the matches and list the long templates and the short
	// template groups they need and the Reader lacks, so those load in one
	// coalesced pass (loadTemplateRuns) before any cursor dereferences them.
	var needShort, needLong []int
	flows := 0
	for _, g := range groups {
		recs, err := r.loadGroup(int(g))
		if err != nil {
			return nil, 0, err
		}
		for j := range recs {
			if rec := &recs[j]; match(rec) {
				flows++
				id, loaded, need := int(rec.Template)/r.idx.groupSize, r.shortLoaded, &needShort
				if rec.Long {
					id, loaded, need = int(rec.Template), r.longLoaded, &needLong
				}
				if !loaded[id] {
					*need = append(*need, id)
				}
			}
		}
	}
	if err := r.loadTemplateRuns(needShort, r.idx.shortOffs, r.shortOff, r.idx.sections.ShortTemplates, r.parseShortGroup); err != nil {
		return nil, 0, err
	}
	if err := r.loadTemplateRuns(needLong, r.idx.longOffs, r.longOff, r.idx.sections.LongTemplates, r.parseLong); err != nil {
		return nil, 0, err
	}
	// Second pass: the cursors, in one slab. Inside a group the RNG skips to
	// each matched record and draws only there.
	d := &Decompressor{archive: r.arch}
	cursors := make([]flowCursor, 0, flows)
	total := int64(0)
	for _, g := range groups {
		recs, rng, at := r.groupRecs[g], r.rngBefore(int(g)), 0
		for j := range recs {
			if rec := &recs[j]; match(rec) {
				rngSkipRecords(&rng, j-at)
				at = j + 1
				cursors = append(cursors, flowCursor{d: d, spec: d.spec(rec, drawIdentity(&rng)), rec: r.idx.groups[g].startRec + j, ts: rec.FirstTS, fromClient: true})
				c := &cursors[len(cursors)-1]
				c.advance()
				total += int64(len(c.spec.f))
			}
		}
	}
	r.flowsOut += flows
	return cursors, total, nil
}

// ExtractFlows decodes only the flows matching the filter, reading just the
// flow groups and templates the index maps to it that this Reader does not
// hold yet. The returned packets are exactly the matching flows' packets of
// the full Decompress output, in the same order — each matched record draws
// its identity at the RNG position the serial decode reaches it with, and the
// merge order is the serial decode's (timestamp, record) order.
func (r *Reader) ExtractFlows(f FlowFilter) (*trace.Trace, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	sp := r.tracer.Span(0, "extract")
	groups := r.selectGroups(f)
	cursors, total, err := r.matchedCursors(groups, f)
	if err != nil {
		sp.End()
		return nil, err
	}
	msp := r.tracer.Span(0, "merge-cursors")
	tr := newOutput("extract", total)
	mergeCursors(len(cursors),
		func(i int) *flowCursor { return &cursors[i] },
		func(i int) time.Duration { return cursors[i].spec.start },
		tr.Append, func(*flowCursor) {}) // the cursors are one slab: nothing to hand back
	msp.End()
	sp.ArgInt("groups", int64(len(groups))).ArgInt("flows", int64(len(cursors))).End()
	return tr, nil
}
