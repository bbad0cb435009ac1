// Package relation implements a small typed, in-memory relational substrate:
// schemas with categorical and numeric attributes, tuples, relations, and
// selection evaluation. It is the storage and execution layer underneath the
// query-result categorizer: the categorizer consumes a Relation holding the
// result set R of an SPJ query and partitions it with label predicates.
package relation

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Type classifies an attribute's domain. The categorizer treats the two
// kinds differently: categorical attributes are partitioned into
// single-value categories, numeric attributes into ranges.
type Type int

const (
	// Categorical attributes hold string values from a discrete domain.
	Categorical Type = iota
	// Numeric attributes hold float64 values from an ordered domain.
	Numeric
)

// String returns "categorical" or "numeric".
func (t Type) String() string {
	switch t {
	case Categorical:
		return "categorical"
	case Numeric:
		return "numeric"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Attribute describes one column of a relation.
type Attribute struct {
	Name string
	Type Type
}

// Schema is an ordered list of attributes with name-based lookup.
type Schema struct {
	attrs []Attribute
	index map[string]int // lower-cased name -> position
}

// NewSchema builds a schema from the given attributes. Attribute names are
// case-insensitive and must be unique.
func NewSchema(attrs ...Attribute) (*Schema, error) {
	s := &Schema{
		attrs: make([]Attribute, len(attrs)),
		index: make(map[string]int, len(attrs)),
	}
	copy(s.attrs, attrs)
	for i, a := range attrs {
		key := strings.ToLower(a.Name)
		if key == "" {
			return nil, fmt.Errorf("relation: attribute %d has empty name", i)
		}
		if _, dup := s.index[key]; dup {
			return nil, fmt.Errorf("relation: duplicate attribute %q", a.Name)
		}
		s.index[key] = i
	}
	return s, nil
}

// MustSchema is like NewSchema but panics on error. Intended for tests and
// static schemas.
func MustSchema(attrs ...Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// Attr returns the attribute at position i.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Attrs returns a copy of the attribute list.
func (s *Schema) Attrs() []Attribute {
	out := make([]Attribute, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Lookup returns the position of the named attribute (case-insensitive) and
// whether it exists.
func (s *Schema) Lookup(name string) (int, bool) {
	i, ok := s.index[strings.ToLower(name)]
	return i, ok
}

// TypeOf returns the type of the named attribute. The second result is false
// if the attribute does not exist.
func (s *Schema) TypeOf(name string) (Type, bool) {
	i, ok := s.Lookup(name)
	if !ok {
		return 0, false
	}
	return s.attrs[i].Type, true
}

// Value is a single cell: either a categorical string or a numeric float64,
// according to the attribute's declared type. The zero Value is a
// categorical empty string.
type Value struct {
	Str string
	Num float64
}

// StringValue makes a categorical value.
func StringValue(s string) Value { return Value{Str: s} }

// NumberValue makes a numeric value.
func NumberValue(n float64) Value { return Value{Num: n} }

// Tuple is one row, with cells positionally aligned to a Schema.
type Tuple []Value

// Relation is an in-memory table: a schema plus rows. The rows live only in
// the columns (column.go) — one dense []float64 per numeric attribute, one
// dictionary-coded []uint32 per categorical attribute — divided into sealed
// segments plus an active tail (segment.go). Tuple identity within a
// relation is the row index, which the categorizer uses to keep tuple-sets
// as index slices; Row materializes a Tuple from the columns at the edges
// (CSV, rendering, tests).
//
// Concurrency: writers (Append, AppendPages, Grow) serialize on an internal
// mutex and write only past the published row count, into spare capacity
// no reader can see; the row count is then published with one atomic
// store. Readers take column snapshots — cap-clamped views published
// behind atomic pointers — and never block unless a snapshot lags appended
// rows, in which case they refresh it under the writer mutex. A reader
// racing a writer keeps whichever snapshot it loaded; row indices obtained
// from an older snapshot stay valid against newer ones because rows are
// only ever appended.
type Relation struct {
	Name   string
	schema *Schema

	// mu serializes writers and the refresh of stale column snapshots.
	mu sync.Mutex
	// store is the writer-side column state, by attribute position.
	//lint:guardedby mu
	store []colStore
	// views are the published column snapshots, by attribute position.
	views []colView
	// n is the published row count. It is also the data generation:
	// derived artifacts (conjunct bitmaps, memoized trees) are stamped with
	// the row count they were built against.
	n atomic.Int64

	// Whole-relation caches derived from the columns (see column.go).
	derived derivedCache

	// Segmented-storage state (see segment.go): the sealed-segment list and
	// the storage counters behind healthz's "storage" block.
	seg segState

	// Vectorized selection state (see vselect.go): the bounded
	// conjunct-bitmap cache and the selection counters.
	vsel vselState
}

// New creates an empty relation with the given name and schema.
func New(name string, schema *Schema) *Relation {
	return &Relation{
		Name:   name,
		schema: schema,
		store:  make([]colStore, schema.Len()),
		views:  make([]colView, schema.Len()),
	}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of rows.
func (r *Relation) Len() int { return int(r.n.Load()) }

// Row materializes the i-th tuple from the columns. The tuple is a fresh
// copy; callers may keep or modify it.
func (r *Relation) Row(i int) Tuple {
	t := make(Tuple, r.schema.Len())
	for a := range t {
		t[a] = r.Cell(i, a)
	}
	return t
}

// Cell returns row i's value of the attribute at position attr: the string
// of a categorical attribute, the number of a numeric one.
func (r *Relation) Cell(i, attr int) Value {
	if r.schema.attrs[attr].Type == Numeric {
		return NumberValue(r.numView(attr)[i])
	}
	return StringValue(r.catView(attr).Value(i))
}

// Append adds a row, writing each cell straight into its attribute's
// column. It returns an error if the tuple width does not match the
// schema. Append is safe to call concurrently with readers: the cells land
// past the published row count, which is then advanced atomically.
//
// Nothing derived is invalidated — cached conjunct bitmaps extend over
// just the appended rows on their next read (vselect.go), so per-row
// maintenance cost is independent of the total row count. When the tail reaches the segment size the full
// span is sealed (segment.go).
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.schema.Len() {
		return fmt.Errorf("relation %s: tuple has %d cells, schema has %d", r.Name, len(t), r.schema.Len())
	}
	r.mu.Lock()
	for a := range r.store {
		s := &r.store[a]
		if r.schema.attrs[a].Type == Numeric {
			s.nums = append(grow(s.nums, 1), t[a].Num)
		} else {
			s.appendString(t[a].Str)
		}
	}
	r.commitLocked(1)
	return nil
}

// commitLocked publishes added rows written into the column store, seals
// the segment spans they complete, releases the writer mutex, and runs the
// seal hook for the newly sealed span. Called with r.mu held; returns with
// it released.
func (r *Relation) commitLocked(added int) {
	prevHi := r.sealedRows()
	r.maybeSeal(int(r.n.Add(int64(added))))
	newHi := r.sealedRows()
	hook := r.seg.sealHook
	r.mu.Unlock()
	if hook != nil && newHi > prevHi {
		// Outside the writer mutex: the span is already sealed and
		// immutable, so the hook may read rows [prevHi, newHi) freely —
		// the durable store spills them to disk from here.
		hook(prevHi, newHi)
	}
}

// MustAppend is Append but panics on error; for tests and generators whose
// width is statically correct.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Grow pre-allocates column capacity for n additional rows.
func (r *Relation) Grow(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for a := range r.store {
		s := &r.store[a]
		if r.schema.attrs[a].Type == Numeric {
			s.nums = growExact(s.nums, n)
		} else {
			s.codes = growExact(s.codes, n)
		}
	}
}

// Select returns the indices of all rows satisfying pred, in row order.
// A nil predicate selects every row; that identity list is cached and
// shared across calls — callers must not modify it. Every other predicate
// evaluates through the vectorized bitmap engine (vselect.go).
func (r *Relation) Select(pred Predicate) []int {
	if pred == nil {
		return r.identityRows()
	}
	//lint:ignore hottime one clock read per Select (not per row), amortized over the whole scan; feeds SelectStats.SelectNanos in healthz
	start := time.Now()
	r.vsel.selects.Add(1)
	//lint:ignore hottime paired with the start read above; deliberate one-shot instrumentation
	defer func() { r.vsel.nanos.Add(uint64(time.Since(start))) }()
	return r.vectorSelect(pred)
}

// DistinctStrings returns the distinct categorical values of attribute attr
// among the rows named by idx, sorted lexicographically. It returns an error
// if attr is missing or not categorical. The distinct set is computed as
// code presence over the sorted dictionary — no string hashing, and the
// dictionary order supplies the sort for free.
func (r *Relation) DistinctStrings(attr string, idx []int) ([]string, error) {
	col, err := r.CatColumn(attr)
	if err != nil {
		return nil, err
	}
	present := make([]bool, len(col.Dict))
	n := 0
	for _, i := range idx {
		if c := col.Codes[i]; !present[c] {
			present[c] = true
			n++
		}
	}
	out := make([]string, 0, n)
	for code, p := range present {
		if p {
			out = append(out, col.Dict[code])
		}
	}
	return out, nil
}

// NumRange returns the min and max numeric value of attribute attr among the
// rows named by idx. ok is false when idx is empty or attr is not numeric.
func (r *Relation) NumRange(attr string, idx []int) (lo, hi float64, ok bool) {
	if len(idx) == 0 {
		return 0, 0, false
	}
	col, err := r.NumColumn(attr)
	if err != nil {
		return 0, 0, false
	}
	lo = col[idx[0]]
	hi = lo
	for _, i := range idx[1:] {
		v := col[i]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, true
}
