package explore

// Frontier storage. A BFS level is two flat arrays — node ids and a
// contiguous []uint64 arena of fixed-width packed records, stride words
// per entry — expanded arenaBatch entries at a time, in visit order.

// arenaBatch is how many packed frontier entries one expansion batch
// holds: large enough to amortise dispatch, small enough that the batch's
// slot configurations stay a rounding error next to the arena itself.
const arenaBatch = 8192

// frontier holds one BFS level in visit order.
type frontier struct {
	// stride is the packed record width in words.
	stride int
	ids    []int32
	words  []uint64
}

// add appends a freshly discovered entry: its node id and its stride-long
// packed record.
func (f *frontier) add(id int32, rec []uint64) {
	f.ids = append(f.ids, id)
	f.words = append(f.words, rec...)
}

// numBatches returns how many arenaBatch slices the level drains in.
func (f *frontier) numBatches() int {
	return (len(f.ids) + arenaBatch - 1) / arenaBatch
}

// batchBuf is the coordinator's reusable entry window handed to the
// expander. One buffer serves one search; a batch dies when the next is
// built.
type batchBuf struct {
	entries []levelEntry
}

// batch returns the bi-th batch in frontier order, windowed into buf.
func (f *frontier) batch(bi int, buf *batchBuf) []levelEntry {
	lo := bi * arenaBatch
	hi := min(lo+arenaBatch, len(f.ids))
	return buf.window(f.stride, f.ids[lo:hi], f.words[lo*f.stride:hi*f.stride])
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
// keeping its backing arrays.
func (f *frontier) clear() {
	f.ids = f.ids[:0]
	f.words = f.words[:0]
}
