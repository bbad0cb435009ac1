package relation

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Column storage (DESIGN.md §7). The columns are the table. The
// categorizer's level-by-level search reads the same one or two attributes
// for every tuple of every frontier node, per candidate attribute, per
// level — a column-at-a-time access pattern — so every attribute is stored
// as a dense, cache-friendly array and nothing else:
//
//   - numeric attributes as a []float64 indexed by row id;
//   - categorical attributes as dictionary codes: a []uint32 per row plus
//     a sorted value table, so partitioning is integer counting-sort
//     instead of string hashing, and codes compare in value order.
//
// Append writes each cell straight into its column, past the published row
// count. A categorical cell whose value is already in the dictionary is
// encoded at once; one that brings a new value starts a short raw-string
// tail (colStore.pending) that the next read or seal encodes in one pass.
// That pass is the one structural event: the new values merge into the
// sorted dictionary and every existing code at or above an insertion point
// shifts — a pure integer rewrite into a fresh array (no string is
// re-hashed, published snapshots keep the old array), at most once per
// read or seal that finds new values rather than once per appended row.
//
// Readers get snapshots: cap-clamped views of the column arrays published
// behind atomic pointers (colView). A view's visible elements are never
// written again, so a snapshot stays valid while the writer appends into
// spare capacity beyond it.

// CatColumn is the dictionary-encoded projection of one categorical
// attribute. Codes[i] is the code of row i's value; Dict is sorted
// ascending, so codes compare in lexicographic value order. Both slices are
// shared snapshots — callers must not modify them (catlint's segguard
// check enforces this outside internal/relation).
type CatColumn struct {
	Codes []uint32
	Dict  []string
}

// Value decodes row i's value.
func (c *CatColumn) Value(i int) string { return c.Dict[c.Codes[i]] }

// Card returns the number of distinct values (the dictionary size).
func (c *CatColumn) Card() int { return len(c.Dict) }

// Code returns the dictionary code of v and whether v occurs in the column.
func (c *CatColumn) Code(v string) (uint32, bool) {
	i := sort.SearchStrings(c.Dict, v)
	if i < len(c.Dict) && c.Dict[i] == v {
		return uint32(i), true
	}
	return 0, false
}

// Page is one attribute's values over a span of rows, in column form: Nums
// for a numeric attribute, or Codes into the sorted, duplicate-free Dict
// for a categorical one. Pages carry rows between relations and the
// durable store without a Tuple per row (Pages, AppendPages). Pages handed
// out by a relation share its column snapshots — callers must not modify
// them.
type Page struct {
	Nums  []float64
	Codes []uint32
	Dict  []string
}

// colStore is the writer-side state of one column, guarded by the
// relation's mutex. Numeric columns use nums; categorical ones use codes,
// dict and pending.
type colStore struct {
	nums  []float64 // rows [0, n)
	codes []uint32  // rows [0, n-len(pending))
	dict  []string  // sorted ascending; shared with published views, never written in place
	// ids maps each dict value to a stable id, its order of arrival, and
	// rank maps an id to the value's current code: a remap rewrites rank
	// instead of rebuilding the map.
	ids  map[string]uint32
	rank []uint32
	// pending holds the raw values of the rows past codes, once a row
	// brought a value new to dict; encoded by flush.
	pending []string
}

// code returns v's dictionary code and whether v is in the dictionary.
func (s *colStore) code(v string) (uint32, bool) {
	id, ok := s.ids[v]
	if !ok {
		return 0, false
	}
	return s.rank[id], true
}

// addID registers a value new to the dictionary at code c.
func (s *colStore) addID(v string, c int) {
	if s.ids == nil {
		s.ids = make(map[string]uint32)
	}
	s.ids[v] = uint32(len(s.rank))
	s.rank = append(s.rank, uint32(c))
}

// colView holds the published snapshot of one column.
type colView struct {
	num atomic.Pointer[[]float64]
	cat atomic.Pointer[CatColumn]
}

// growCap sizes a backing array for n rows with headroom, so steady-state
// appends extend in place instead of reallocating per row.
func growCap(n int) int { return n + n/4 + 64 }

// grow returns s with room for extra more elements, reallocating with
// headroom when the capacity is short. A reallocation leaves the old array
// to the snapshots that share it.
func grow[T any](s []T, extra int) []T {
	if need := len(s) + extra; need > cap(s) {
		ns := make([]T, len(s), growCap(need))
		copy(ns, s)
		return ns
	}
	return s
}

// growExact is grow without headroom, for callers that know the final size.
func growExact[T any](s []T, extra int) []T {
	if need := len(s) + extra; need > cap(s) {
		ns := make([]T, len(s), need)
		copy(ns, s)
		return ns
	}
	return s
}

// appendString appends one categorical cell.
func (s *colStore) appendString(v string) {
	if len(s.pending) == 0 {
		if c, ok := s.code(v); ok {
			s.codes = append(grow(s.codes, 1), c)
			return
		}
	}
	s.pending = append(s.pending, v)
}

// flush encodes the pending cells, merging their new values into the
// dictionary with at most one remap.
func (s *colStore) flush() {
	if len(s.pending) == 0 {
		return
	}
	var fresh []string
	for _, v := range s.pending {
		if _, ok := s.code(v); !ok {
			fresh = append(fresh, v)
		}
	}
	slices.Sort(fresh)
	s.addValues(slices.Compact(fresh))
	s.codes = grow(s.codes, len(s.pending))
	for _, v := range s.pending {
		c, _ := s.code(v)
		s.codes = append(s.codes, c)
	}
	clear(s.pending)
	s.pending = s.pending[:0]
}

// addValues merges fresh — sorted, duplicate-free, none already in the
// dictionary — into the dictionary. When every fresh value sorts after the
// existing ones the codes stay as they are; otherwise existing codes are
// remapped into a fresh array, so published snapshots are untouched.
func (s *colStore) addValues(fresh []string) {
	if len(fresh) == 0 {
		return
	}
	old := s.dict
	if len(old) == 0 || fresh[0] > old[len(old)-1] {
		for j, v := range fresh {
			s.addID(v, len(old)+j)
		}
		s.dict = append(old[:len(old):len(old)], fresh...)
		return
	}
	dict := make([]string, 0, len(old)+len(fresh))
	shift := make([]uint32, len(old))
	oldIDs := len(s.rank)
	i, j := 0, 0
	for i < len(old) || j < len(fresh) {
		if j == len(fresh) || (i < len(old) && old[i] < fresh[j]) {
			shift[i] = uint32(len(dict))
			dict = append(dict, old[i])
			i++
		} else {
			s.addID(fresh[j], len(dict))
			dict = append(dict, fresh[j])
			j++
		}
	}
	for id, c := range s.rank[:oldIDs] {
		s.rank[id] = shift[c]
	}
	codes := make([]uint32, len(s.codes), cap(s.codes))
	for k, c := range s.codes {
		codes[k] = shift[c]
	}
	s.codes, s.dict = codes, dict
}

// appendPage appends a categorical page, translating its local codes into
// the column's dictionary. Only values the page uses join the dictionary.
func (s *colStore) appendPage(p Page) {
	s.flush()
	used := make([]bool, len(p.Dict))
	for _, c := range p.Codes {
		used[c] = true
	}
	var fresh []string
	for j, v := range p.Dict {
		if _, ok := s.code(v); used[j] && !ok {
			fresh = append(fresh, v)
		}
	}
	s.addValues(fresh) // p.Dict is sorted, so fresh is too
	xlat := make([]uint32, len(p.Dict))
	for j, v := range p.Dict {
		if used[j] {
			xlat[j], _ = s.code(v)
		}
	}
	s.codes = grow(s.codes, len(p.Codes))
	for _, c := range p.Codes {
		s.codes = append(s.codes, xlat[c])
	}
}

// AppendPages appends rows given column-wise, one Page per attribute in
// schema order; every page must hold the same number of rows. Categorical
// pages may use any sorted, duplicate-free dictionary — codes are
// translated into the relation's own. Like Append it is safe against
// concurrent readers and seals the segment spans it completes.
func (r *Relation) AppendPages(pages []Page) error {
	if len(pages) != r.schema.Len() {
		return fmt.Errorf("relation %s: %d pages, schema has %d attributes", r.Name, len(pages), r.schema.Len())
	}
	rows := -1
	for a, p := range pages {
		k := len(p.Nums)
		if r.schema.attrs[a].Type == Categorical {
			k = len(p.Codes)
			if err := checkDictPage(p); err != nil {
				return fmt.Errorf("relation %s: attribute %q: %w", r.Name, r.schema.attrs[a].Name, err)
			}
		}
		if rows >= 0 && k != rows {
			return fmt.Errorf("relation %s: attribute %q page holds %d rows, want %d", r.Name, r.schema.attrs[a].Name, k, rows)
		}
		rows = k
	}
	if rows <= 0 {
		return nil
	}
	r.mu.Lock()
	for a := range r.store {
		s := &r.store[a]
		if r.schema.attrs[a].Type == Numeric {
			s.nums = append(grow(s.nums, rows), pages[a].Nums...)
		} else {
			s.appendPage(pages[a])
		}
	}
	r.commitLocked(rows)
	return nil
}

// checkDictPage validates a categorical page: a strictly ascending
// dictionary and every code inside it.
func checkDictPage(p Page) error {
	for j := 1; j < len(p.Dict); j++ {
		if p.Dict[j-1] >= p.Dict[j] {
			return fmt.Errorf("page dictionary not sorted and duplicate-free at entry %d", j)
		}
	}
	for i, c := range p.Codes {
		if int(c) >= len(p.Dict) {
			return fmt.Errorf("row %d: code %d outside dictionary of %d", i, c, len(p.Dict))
		}
	}
	return nil
}

// Pages returns rows [lo, hi) in column form, one Page per attribute. The
// pages share the relation's column snapshots: callers must not modify
// them.
func (r *Relation) Pages(lo, hi int) []Page {
	out := make([]Page, r.schema.Len())
	for a := range out {
		if r.schema.attrs[a].Type == Numeric {
			out[a].Nums = r.numView(a)[lo:hi:hi]
			continue
		}
		c := r.catView(a)
		out[a] = Page{Codes: c.Codes[lo:hi:hi], Dict: c.Dict}
	}
	return out
}

// numView returns the numeric column at position pos, covering at least
// the rows published when it was called.
func (r *Relation) numView(pos int) []float64 {
	n := r.Len()
	if v := r.views[pos].num.Load(); v != nil && len(*v) >= n {
		return *v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	nums := r.store[pos].nums
	v := nums[:len(nums):len(nums)]
	r.views[pos].num.Store(&v)
	return v
}

// catView returns the categorical column at position pos, covering at
// least the rows published when it was called. A stale snapshot is
// refreshed under the writer mutex, encoding any pending cells first.
func (r *Relation) catView(pos int) *CatColumn {
	n := r.Len()
	if c := r.views[pos].cat.Load(); c != nil && len(c.Codes) >= n {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.store[pos]
	s.flush()
	c := &CatColumn{Codes: s.codes[:len(s.codes):len(s.codes)], Dict: s.dict}
	r.views[pos].cat.Store(c)
	return c
}

// CatColumn returns the dictionary-encoded column of the named categorical
// attribute, covering every row appended before the call. It errors if the
// attribute is missing or numeric.
func (r *Relation) CatColumn(attr string) (*CatColumn, error) {
	pos, ok := r.schema.Lookup(attr)
	if !ok {
		return nil, fmt.Errorf("relation %s: no attribute %q", r.Name, attr)
	}
	if r.schema.attrs[pos].Type != Categorical {
		return nil, fmt.Errorf("relation %s: attribute %q is not categorical", r.Name, attr)
	}
	return r.catView(pos), nil
}

// NumColumn returns the dense column of the named numeric attribute,
// covering every row appended before the call. It errors if the attribute
// is missing or categorical.
func (r *Relation) NumColumn(attr string) ([]float64, error) {
	pos, ok := r.schema.Lookup(attr)
	if !ok {
		return nil, fmt.Errorf("relation %s: no attribute %q", r.Name, attr)
	}
	if r.schema.attrs[pos].Type != Numeric {
		return nil, fmt.Errorf("relation %s: attribute %q is not numeric", r.Name, attr)
	}
	return r.numView(pos), nil
}

// derivedCache holds whole-relation artifacts derived from the columns.
type derivedCache struct {
	mu sync.Mutex
	// sorted holds the full-relation sort of each numeric attribute, by
	// attribute position (NumSorted).
	//lint:guardedby mu
	sorted map[int]*numSorted
	// identity is the cached full row list [0, 1, …, n-1] that Select(nil)
	// and Browse return; extended in place (spare capacity) as rows append.
	//lint:guardedby mu
	identity []int
	//lint:guardedby mu
	idBacking []int
}

// identityRows returns the cached identity row list, building or extending
// it to the current row count. The returned slice is shared — callers must
// treat it as read-only.
func (r *Relation) identityRows() []int {
	n := r.Len()
	r.derived.mu.Lock()
	defer r.derived.mu.Unlock()
	if len(r.derived.identity) == n {
		return r.derived.identity
	}
	b := grow(r.derived.idBacking, n-len(r.derived.idBacking))
	for i := len(b); i < n; i++ {
		b = append(b, i)
	}
	r.derived.idBacking = b
	r.derived.identity = b[:n:n]
	return r.derived.identity
}

// numSorted is the whole relation ordered by one numeric attribute.
type numSorted struct {
	rows []int
	vals []float64
}

// SortByValue returns tset's rows ordered by ascending col value, together
// with the parallel value slice. The permutation is exactly what pdqsort
// produces over tset with a plain `<` comparator — the categorizer's
// historical per-node sort — but runs over packed (value, row) pairs, so no
// comparison gathers through the column. Ties therefore land in the same
// (deterministic) order as before the columnar rewrite, and — because the
// numeric path is never sharded (DESIGN.md §12) — that order is identical
// at every Options.Shards setting.
func SortByValue(col []float64, tset []int) (rows []int, vals []float64) {
	pairs := pairsFor(len(tset))
	for k, i := range tset {
		pairs[k] = valRow{v: col[i], row: int32(i)}
	}
	sortValRows(pairs)
	rows = make([]int, len(pairs))
	vals = make([]float64, len(pairs))
	for k, p := range pairs {
		rows[k] = int(p.row)
		vals[k] = p.v
	}
	pairPool.Put(&pairs)
	return rows, vals
}

// pairPool recycles the transient (value, row) buffers of SortByValue: the
// level-by-level search sorts one buffer per (node, attribute) pair and
// discards it immediately, so without pooling the sort loop dominates the
// allocator.
var pairPool = sync.Pool{New: func() any { s := make([]valRow, 0, 1024); return &s }}

func pairsFor(n int) []valRow {
	p := pairPool.Get().(*[]valRow)
	if cap(*p) < n {
		*p = make([]valRow, n)
	}
	return (*p)[:n]
}

type valRow struct {
	v   float64
	row int32
}

func sortValRows(pairs []valRow) {
	// slices.SortFunc is the same pdqsort as sort.Slice minus the
	// reflection; with this comparator its comparison outcomes — and hence
	// the final permutation, ties included — match the historical
	// sort.Slice(idx, func(a,b) { col[idx[a]] < col[idx[b]] }) exactly.
	// Do NOT break ties (e.g. on row id) to make the order total: a
	// tie-aware comparator defeats pdqsort's equal-element partitioning
	// and costs >2x on the low-cardinality columns the categorizer loves.
	slices.SortFunc(pairs, func(a, b valRow) int {
		switch {
		case a.v < b.v:
			return -1
		case b.v < a.v:
			return 1
		default:
			return 0
		}
	})
}

// NumSorted returns the relation's rows ordered by the named numeric
// attribute, with the parallel sorted values — the full-relation case of
// SortByValue, built once and cached (browsing-mode categorization sorts
// the entire result set at its root for every numeric candidate, on every
// request). A cached permutation that lags appended rows is rebuilt from
// the column — a full re-sort, deliberately, so the permutation (ties
// included) is bitwise what a cold build over the same rows produces. The
// returned slices are shared snapshots; callers must not modify them.
func (r *Relation) NumSorted(attr string) (rows []int, vals []float64, err error) {
	col, err := r.NumColumn(attr)
	if err != nil {
		return nil, nil, err
	}
	pos, _ := r.schema.Lookup(attr)
	r.derived.mu.Lock()
	defer r.derived.mu.Unlock()
	if s, ok := r.derived.sorted[pos]; ok && len(s.rows) == len(col) {
		return s.rows, s.vals, nil
	}
	pairs := pairsFor(len(col))
	for i, v := range col {
		pairs[i] = valRow{v: v, row: int32(i)}
	}
	sortValRows(pairs)
	s := &numSorted{rows: make([]int, len(pairs)), vals: make([]float64, len(pairs))}
	for k, p := range pairs {
		s.rows[k] = int(p.row)
		s.vals[k] = p.v
	}
	pairPool.Put(&pairs)
	if r.derived.sorted == nil {
		r.derived.sorted = make(map[int]*numSorted)
	}
	r.derived.sorted[pos] = s
	return s.rows, s.vals, nil
}

func lower(s string) string {
	b := []byte(s)
	changed := false
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
			changed = true
		}
	}
	if !changed {
		return s
	}
	return string(b)
}
