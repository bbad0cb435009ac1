package relation

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Predicate is a boolean condition over a tuple. Category labels, query
// selection conditions, and simulated user interests are all predicates.
// True, *In, *Range and *And are the only kinds: the unexported marker
// method closes the set, so the vectorized engine (vselect.go) has a plan
// for every predicate.
type Predicate interface {
	// Matches reports whether tuple t (under schema s) satisfies the
	// predicate. Unknown attributes never match. Relations evaluate
	// predicates over their columns (Select, Matcher); Matches is the
	// row-at-a-time definition they are tested against.
	Matches(s *Schema, t Tuple) bool
	// String renders the predicate in the SQL-ish form used for category
	// labels and query reconstruction.
	String() string

	predicate()
}

// Matcher compiles pred against the relation's current columns into a
// per-row test with exactly Predicate.Matches' semantics, for loops over a
// tuple-set that must not materialize a Tuple per row. Rows must be below
// Len at the time of the call. A nil pred matches every row.
func (r *Relation) Matcher(pred Predicate) func(row int) bool {
	switch p := pred.(type) {
	case *In:
		col, err := r.CatColumn(p.Attr)
		if err != nil {
			return matchNone
		}
		member := make([]bool, col.Card())
		for v := range p.Values {
			if c, ok := col.Code(v); ok {
				member[c] = true
			}
		}
		return func(i int) bool { return member[col.Codes[i]] }
	case *Range:
		col, err := r.NumColumn(p.Attr)
		if err != nil {
			return matchNone
		}
		lo, hi, hiInc := p.Lo, p.Hi, p.HiInc
		return func(i int) bool {
			v := col[i]
			if v < lo {
				return false
			}
			if hiInc {
				return v <= hi
			}
			return v < hi
		}
	case *And:
		ms := make([]func(int) bool, len(p.Preds))
		for k, q := range p.Preds {
			ms[k] = r.Matcher(q)
		}
		return func(i int) bool {
			for _, m := range ms {
				if !m(i) {
					return false
				}
			}
			return true
		}
	}
	return func(int) bool { return true } // True, nil
}

func matchNone(int) bool { return false }

// True is the predicate satisfied by every tuple.
type True struct{}

// Matches always reports true.
func (True) Matches(*Schema, Tuple) bool { return true }

func (True) predicate()   {}
func (*In) predicate()    {}
func (*Range) predicate() {}
func (*And) predicate()   {}

// String renders the constant predicate.
func (True) String() string { return "TRUE" }

// In is the membership predicate `Attr IN {v1, …, vk}` over a categorical
// attribute.
type In struct {
	Attr   string
	Values map[string]struct{}
}

// NewIn builds an In predicate over the given values.
func NewIn(attr string, values ...string) *In {
	m := make(map[string]struct{}, len(values))
	for _, v := range values {
		m[v] = struct{}{}
	}
	return &In{Attr: attr, Values: m}
}

// Matches reports whether t's value on Attr is one of the member values.
func (p *In) Matches(s *Schema, t Tuple) bool {
	i, ok := s.Lookup(p.Attr)
	if !ok || s.Attr(i).Type != Categorical {
		return false
	}
	_, member := p.Values[t[i].Str]
	return member
}

// SortedValues returns the member values in lexicographic order.
func (p *In) SortedValues() []string {
	out := make([]string, 0, len(p.Values))
	for v := range p.Values {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Overlaps reports whether this predicate shares at least one value with
// other, per the paper's overlap definition for categorical attributes.
func (p *In) Overlaps(other *In) bool {
	small, big := p.Values, other.Values
	if len(big) < len(small) {
		small, big = big, small
	}
	for v := range small {
		if _, ok := big[v]; ok {
			return true
		}
	}
	return false
}

// String renders `Attr IN ('a','b')`.
func (p *In) String() string {
	vals := p.SortedValues()
	quoted := make([]string, len(vals))
	for i, v := range vals {
		quoted[i] = "'" + strings.ReplaceAll(v, "'", "''") + "'"
	}
	return fmt.Sprintf("%s IN (%s)", p.Attr, strings.Join(quoted, ","))
}

// Range is the interval predicate `Lo ≤ Attr < Hi` (or ≤ Hi when HiInc) over
// a numeric attribute. Category labels use half-open [Lo,Hi) buckets; query
// conditions parsed from BETWEEN use closed intervals.
type Range struct {
	Attr  string
	Lo    float64 // math.Inf(-1) when unbounded below
	Hi    float64 // math.Inf(+1) when unbounded above
	HiInc bool    // include Hi itself
}

// NewRange builds the half-open range [lo, hi).
func NewRange(attr string, lo, hi float64) *Range {
	return &Range{Attr: attr, Lo: lo, Hi: hi}
}

// NewClosedRange builds the closed range [lo, hi].
func NewClosedRange(attr string, lo, hi float64) *Range {
	return &Range{Attr: attr, Lo: lo, Hi: hi, HiInc: true}
}

// Matches reports whether t's value on Attr lies inside the interval.
func (p *Range) Matches(s *Schema, t Tuple) bool {
	i, ok := s.Lookup(p.Attr)
	if !ok || s.Attr(i).Type != Numeric {
		return false
	}
	v := t[i].Num
	if v < p.Lo {
		return false
	}
	if p.HiInc {
		return v <= p.Hi
	}
	return v < p.Hi
}

// Overlaps reports whether the two intervals intersect, per the paper's
// overlap definition for numeric attributes.
func (p *Range) Overlaps(other *Range) bool {
	pHi, oHi := p.Hi, other.Hi
	// Treat half-open upper bounds as excluding the endpoint.
	if p.Lo > oHi || (p.Lo == oHi && !other.HiInc) {
		return false
	}
	if other.Lo > pHi || (other.Lo == pHi && !p.HiInc) {
		return false
	}
	return true
}

// String renders `Attr >= lo AND Attr < hi`, eliding infinite bounds.
func (p *Range) String() string {
	var parts []string
	if !math.IsInf(p.Lo, -1) {
		parts = append(parts, fmt.Sprintf("%s >= %s", p.Attr, formatNum(p.Lo)))
	}
	if !math.IsInf(p.Hi, 1) {
		op := "<"
		if p.HiInc {
			op = "<="
		}
		parts = append(parts, fmt.Sprintf("%s %s %s", p.Attr, op, formatNum(p.Hi)))
	}
	if len(parts) == 0 {
		return "TRUE"
	}
	return strings.Join(parts, " AND ")
}

// And is the conjunction of predicates; an empty conjunction is TRUE.
type And struct {
	Preds []Predicate
}

// NewAnd builds a conjunction, flattening nested Ands and dropping Trues.
func NewAnd(preds ...Predicate) *And {
	a := &And{}
	for _, p := range preds {
		switch q := p.(type) {
		case nil:
		case True:
			// drop
		case *And:
			a.Preds = append(a.Preds, q.Preds...)
		default:
			a.Preds = append(a.Preds, p)
		}
	}
	return a
}

// Matches reports whether every conjunct matches.
func (a *And) Matches(s *Schema, t Tuple) bool {
	for _, p := range a.Preds {
		if !p.Matches(s, t) {
			return false
		}
	}
	return true
}

// String renders the conjuncts joined by AND.
func (a *And) String() string {
	if len(a.Preds) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(a.Preds))
	for i, p := range a.Preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}

// formatNum renders a float64 without unnecessary fraction digits, so
// integral domain values print as integers in labels and SQL.
func formatNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
