// Package ranking implements workload-based tuple ranking — the technique
// the paper names as categorization's complement (§2, citing Agrawal,
// Chaudhuri & Das, "Automated Ranking of Database Query Results"). Tuples
// whose attribute values past users requested often rank higher, following
// the query-frequency (QF) similarity idea of that work: the workload is
// evidence of global preference.
//
// Ranking composes with categorization two ways: ordering a flat result list
// (the search-engine presentation), and ordering the tuples *inside* each
// leaf category so the ONE-scenario user meets a popular tuple sooner.
package ranking

import (
	"math"
	"sort"

	"repro/internal/relation"
	"repro/internal/workload"
)

// Ranker scores tuples by workload popularity. Build one per
// (stats, relation-schema) pair; it precomputes per-attribute normalizers
// and is read-only afterwards (safe for concurrent use).
type Ranker struct {
	stats *workload.Stats
	// attrs lists the schema attributes that the workload ever filters on,
	// with their positions and type; others contribute nothing to scores.
	attrs []rankAttr
}

type rankAttr struct {
	name    string
	pos     int
	numeric bool
	// weight is the attribute's share of workload attention (NAttr/N); an
	// attribute nobody filters on cannot express preference.
	weight float64
	// maxOcc normalizes categorical QF scores.
	maxOcc float64
}

// New builds a Ranker for relations with the given schema.
func New(stats *workload.Stats, schema *relation.Schema) *Ranker {
	r := &Ranker{stats: stats}
	for i := 0; i < schema.Len(); i++ {
		a := schema.Attr(i)
		w := stats.UsageFraction(a.Name)
		if w == 0 {
			continue
		}
		ra := rankAttr{
			name:    a.Name,
			pos:     i,
			numeric: a.Type == relation.Numeric,
			weight:  w,
		}
		r.attrs = append(r.attrs, ra)
	}
	return r
}

// Score returns the tuple's workload-popularity score: the weighted sum,
// over the attributes past users filter on, of how requested the tuple's
// value is. Categorical values contribute their relative occurrence count
// occ(v)/NAttr (the QF fraction); numeric values contribute the fraction of
// workload ranges on the attribute that contain them.
func (r *Ranker) Score(rel *relation.Relation, row int) float64 {
	score := 0.0
	for _, a := range r.attrs {
		nAttr := r.stats.NAttr(a.name)
		if nAttr == 0 {
			continue
		}
		var qf float64
		if a.numeric {
			v := rel.Cell(row, a.pos).Num
			qf = float64(r.stats.NOverlapRange(a.name, v, math.Nextafter(v, math.Inf(1)))) / float64(nAttr)
		} else {
			qf = float64(r.stats.Occ(a.name, rel.Cell(row, a.pos).Str)) / float64(nAttr)
		}
		score += a.weight * qf
	}
	return score
}

// Rank returns the row indices reordered by descending score; ties keep
// their input order (stable), so ranking is deterministic. The input slice
// is not modified.
func (r *Ranker) Rank(rel *relation.Relation, rows []int) []int {
	type scored struct {
		row   int
		score float64
	}
	out := make([]scored, len(rows))
	for i, row := range rows {
		out[i] = scored{row: row, score: r.Score(rel, row)}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].score > out[j].score })
	ranked := make([]int, len(rows))
	for i, s := range out {
		ranked[i] = s.row
	}
	return ranked
}
