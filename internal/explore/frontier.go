package explore

// Frontier storage. A BFS level is a run of pages, each holding up to
// arenaBatch entries as two flat arrays — node ids and a contiguous
// []uint64 arena of fixed-width packed records, stride words per entry —
// and is expanded one page, one batch, at a time, in visit order.

// arenaBatch is how many packed frontier entries one page, and so one
// expansion batch, holds: large enough to amortise dispatch, small enough
// that the batch's slot configurations stay a rounding error next to the
// arena itself. A variable so the differential tests can force many pages
// onto tiny spaces.
var arenaBatch = 8192

// frontierPage is one batch of a level: its entries' node ids and their
// packed records.
type frontierPage struct {
	ids   []int32
	words []uint64
}

// frontier holds one BFS level in visit order. Pages are kept when the
// level is cleared, so a level reuses the pages of the one two levels
// back, and a full page is never copied. Page 0 alone grows, by reserve's
// doubling, so the many tiny searches allocate only about what they hold;
// later pages are allocated whole.
type frontier struct {
	// stride is the packed record width in words.
	stride int
	pages  []frontierPage
	// used counts the pages holding this level's entries, n the entries.
	used int
	n    int
}

// add appends a freshly discovered entry: its node id and its stride-long
// packed record.
func (f *frontier) add(id int32, rec []uint64) {
	if f.used == 0 || len(f.pages[f.used-1].ids) == arenaBatch {
		if f.used == len(f.pages) {
			var p frontierPage
			if f.used > 0 {
				p = frontierPage{ids: make([]int32, 0, arenaBatch), words: make([]uint64, 0, arenaBatch*f.stride)}
			}
			f.pages = append(f.pages, p)
		}
		f.used++
	}
	p := &f.pages[f.used-1]
	p.ids = append(reserve(p.ids, 1, arenaBatch), id)
	p.words = append(reserve(p.words, f.stride, arenaBatch*f.stride), rec...)
	f.n++
}

// reserve returns s with room for n more elements, doubling its capacity
// (from at least 8) when short, but never past limit, a full page. Page 0
// of the forest and the frontier grows this way: filling it allocates
// about twice a page, where append's 1.25× growth above 256 elements
// allocates about five times.
func reserve[T any](s []T, n, limit int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	grown := make([]T, len(s), min(max(2*cap(s), len(s)+n, 8), limit))
	copy(grown, s)
	return grown
}

// len returns the number of entries in the level.
func (f *frontier) len() int { return f.n }

// numBatches returns how many batches, one per page, the level drains in.
func (f *frontier) numBatches() int { return f.used }

// batchBuf is the coordinator's reusable entry window handed to the
// expander. One buffer serves one search; a batch dies when the next is
// built.
type batchBuf struct {
	entries []levelEntry
}

// batch returns the bi-th batch in frontier order, page bi windowed into
// buf.
func (f *frontier) batch(bi int, buf *batchBuf) []levelEntry {
	p := &f.pages[bi]
	return buf.window(f.stride, p.ids, p.words)
}

// window wraps a run of packed records as levelEntry values. Expansion
// enumerates moves from the interned state ids and steps directly on the
// words, so no configuration is decoded here — an entry is just its node
// id and a view into the arena.
func (b *batchBuf) window(stride int, ids []int32, words []uint64) []levelEntry {
	if cap(b.entries) < len(ids) {
		b.entries = make([]levelEntry, len(ids))
	}
	entries := b.entries[:len(ids)]
	for i, id := range ids {
		entries[i] = levelEntry{id: id, words: words[i*stride : (i+1)*stride]}
	}
	return entries
}

// clear empties a consumed frontier for reuse as the next accumulator,
// keeping its pages.
func (f *frontier) clear() {
	for i := range f.pages[:f.used] {
		p := &f.pages[i]
		p.ids, p.words = p.ids[:0], p.words[:0]
	}
	f.used, f.n = 0, 0
}
