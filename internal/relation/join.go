package relation

import (
	"fmt"
	"strings"
)

// Join materializes the equi-join of a fact table with one dimension table —
// the star-schema flattening the paper assumes (footnote 6: workload queries
// "are equivalent to select queries on the wide table obtained by joining
// the fact table with the dimension tables"). It is an inner hash join on
// fact.factKey = dim.dimKey: fact rows without a dimension match are
// dropped, and a duplicated dimension key is an error (dimensions are keyed).
// Dimension attributes (except the key) are appended to the fact schema; on
// a name collision the dimension attribute is prefixed with "<dim name>_".
func Join(fact *Relation, factKey string, dim *Relation, dimKey string) (*Relation, error) {
	fPos, ok := fact.schema.Lookup(factKey)
	if !ok {
		return nil, fmt.Errorf("relation: fact table %s has no attribute %q", fact.Name, factKey)
	}
	dPos, ok := dim.schema.Lookup(dimKey)
	if !ok {
		return nil, fmt.Errorf("relation: dimension table %s has no attribute %q", dim.Name, dimKey)
	}
	fType := fact.schema.Attr(fPos).Type
	if dType := dim.schema.Attr(dPos).Type; fType != dType {
		return nil, fmt.Errorf("relation: join key type mismatch: %s.%s is %v, %s.%s is %v",
			fact.Name, factKey, fType, dim.Name, dimKey, dType)
	}

	// Output schema: all fact attributes, then dim attributes minus the key.
	attrs := fact.schema.Attrs()
	taken := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		taken[strings.ToLower(a.Name)] = true
	}
	var dimCols []int
	for i := 0; i < dim.schema.Len(); i++ {
		if i == dPos {
			continue
		}
		a := dim.schema.Attr(i)
		name := a.Name
		if taken[strings.ToLower(name)] {
			name = dim.Name + "_" + name
			if taken[strings.ToLower(name)] {
				return nil, fmt.Errorf("relation: cannot disambiguate joined attribute %q", a.Name)
			}
		}
		taken[strings.ToLower(name)] = true
		attrs = append(attrs, Attribute{Name: name, Type: a.Type})
		dimCols = append(dimCols, i)
	}
	schema, err := NewSchema(attrs...)
	if err != nil {
		return nil, fmt.Errorf("relation: joined schema: %w", err)
	}

	// Build the dimension hash table, then pair each fact row with its
	// dimension row.
	nd := dim.Len()
	dimByKey := make(map[Value]int, nd)
	for i := 0; i < nd; i++ {
		key := dim.Cell(i, dPos)
		if _, dup := dimByKey[key]; dup {
			return nil, fmt.Errorf("relation: dimension %s has duplicate key %v", dim.Name, key)
		}
		dimByKey[key] = i
	}
	var factRows, dimRows []int
	for i, nf := 0, fact.Len(); i < nf; i++ {
		if d, ok := dimByKey[fact.Cell(i, fPos)]; ok {
			factRows = append(factRows, i)
			dimRows = append(dimRows, d)
		} // inner join: unmatched fact rows are dropped
	}

	pages := fact.Gather(factRows)
	dimPages := dim.Gather(dimRows)
	for _, c := range dimCols {
		pages = append(pages, dimPages[c])
	}
	out := New(fact.Name+"_"+dim.Name, schema)
	if err := out.AppendPages(pages); err != nil {
		return nil, err
	}
	return out, nil
}

// Gather returns the given rows, in the given order, in column form: one
// freshly allocated Page per attribute (categorical pages share the
// relation's dictionary).
func (r *Relation) Gather(rows []int) []Page {
	out := make([]Page, r.schema.Len())
	for a := range out {
		if r.schema.attrs[a].Type == Numeric {
			col := r.numView(a)
			nums := make([]float64, len(rows))
			for k, i := range rows {
				nums[k] = col[i]
			}
			out[a].Nums = nums
			continue
		}
		col := r.catView(a)
		codes := make([]uint32, len(rows))
		for k, i := range rows {
			codes[k] = col.Codes[i]
		}
		out[a] = Page{Codes: codes, Dict: col.Dict}
	}
	return out
}

// Project returns a new relation containing only the named attributes, in
// the given order. Row order is preserved; the columns are copied.
func Project(r *Relation, cols ...string) (*Relation, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("relation: projection needs at least one attribute")
	}
	attrs := make([]Attribute, len(cols))
	pos := make([]int, len(cols))
	for i, c := range cols {
		p, ok := r.schema.Lookup(c)
		if !ok {
			return nil, fmt.Errorf("relation %s: no attribute %q to project", r.Name, c)
		}
		attrs[i] = r.schema.Attr(p)
		pos[i] = p
	}
	schema, err := NewSchema(attrs...)
	if err != nil {
		return nil, fmt.Errorf("relation: projected schema: %w", err)
	}
	all := r.Pages(0, r.Len())
	pages := make([]Page, len(pos))
	for j, p := range pos {
		pages[j] = all[p]
	}
	out := New(r.Name, schema)
	if err := out.AppendPages(pages); err != nil {
		return nil, err
	}
	return out, nil
}
