// Package category implements the paper's core contribution: labeled
// hierarchical categorization of query results driven by an analytical
// information-overload cost model (Chakrabarti, Chaudhuri, Hwang,
// "Automatic Categorization of Query Results", SIGMOD 2004).
//
// A category tree (§3.1) recursively partitions the result set R: each level
// uses a single categorizing attribute, each node carries a label predicate
// (single value for categorical attributes, half-open range for numeric
// ones) and the tuple-set satisfying the conjunction of labels on its root
// path. The Categorizer searches the space of such trees for the one
// minimizing the expected number of items a user examines (§4-§5); baseline
// builders (NoCost, AttrCost) reproduce the comparison techniques of §6.1.
package category

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/relation"
)

// LabelKind distinguishes the three label shapes.
type LabelKind int

const (
	// LabelAll is the implicit root label containing every tuple.
	LabelAll LabelKind = iota
	// LabelValue is a single-value categorical label `A = v` (§5.1.2).
	LabelValue
	// LabelRange is a numeric bucket label `lo ≤ A < hi` (§5.1.3); the
	// topmost bucket closes the upper bound so the data maximum is covered.
	LabelRange
	// LabelValueSet is a multi-value categorical label `A ∈ B` — the form
	// Figure 1 renders as "Neighborhood: Redmond, Bellevue". The algorithm
	// produces it only as the trailing "Other" category when
	// Options.MaxCategories bounds a level's fan-out.
	LabelValueSet
)

// Label is a category label: the predicate that solely and unambiguously
// tells the user which of the parent's tuples appear under the node.
type Label struct {
	Kind   LabelKind
	Attr   string
	Value  string   // LabelValue
	Values []string // LabelValueSet, sorted
	Lo     float64  // LabelRange
	Hi     float64  // LabelRange
	HiInc  bool     // LabelRange: include Hi (last bucket)
}

// Predicate converts the label to an executable predicate.
func (l Label) Predicate() relation.Predicate {
	switch l.Kind {
	case LabelValue:
		return relation.NewIn(l.Attr, l.Value)
	case LabelValueSet:
		return relation.NewIn(l.Attr, l.Values...)
	case LabelRange:
		return &relation.Range{Attr: l.Attr, Lo: l.Lo, Hi: l.Hi, HiInc: l.HiInc}
	default:
		return relation.True{}
	}
}

// String renders the label the way Figure 1 does: "Price: 200000-225000" or
// "Neighborhood: Redmond, Bellevue".
func (l Label) String() string {
	switch l.Kind {
	case LabelValue:
		return l.Attr + ": " + l.Value
	case LabelValueSet:
		if len(l.Values) <= 3 {
			return l.Attr + ": " + strings.Join(l.Values, ", ")
		}
		return l.Attr + ": Other (" + strconv.Itoa(len(l.Values)) + " values)"
	case LabelRange:
		// Open and closed upper bounds render alike; inclusivity shows in
		// Predicate.
		return l.Attr + ": " + fmtLabelNum(l.Lo) + "-" + fmtLabelNum(l.Hi)
	default:
		return "ALL"
	}
}

func fmtLabelNum(v float64) string {
	if math.IsInf(v, -1) {
		return "min"
	}
	if math.IsInf(v, 1) {
		return "max"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Node is one category. Children are ordered: the exploration models assume
// the user reads child labels top to bottom, so child order is part of the
// categorization (§5.1.2, Appendix A).
type Node struct {
	Label    Label
	Children []*Node
	// Tset holds the indices (into the result relation) of the tuples in
	// tset(C): those satisfying the conjunction of labels from the root.
	Tset []int
	// SubAttr is the categorizing attribute of the children; empty for
	// leaves. There is a 1:1 association between tree level and attribute.
	SubAttr string
	// P is the exploration probability P(C) (§4.2); 1 for the root.
	P float64
	// Pw is the SHOWTUPLES probability Pw(C); 1 for leaves.
	Pw float64
}

// IsLeaf reports whether the node has no subcategories.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Size returns |tset(C)|.
func (n *Node) Size() int { return len(n.Tset) }

// Walk visits the subtree rooted at n in depth-first pre-order, passing the
// node's depth (n itself is depth 0). Returning false prunes the subtree.
func (n *Node) Walk(visit func(node *Node, depth int) bool) {
	n.walk(0, visit)
}

func (n *Node) walk(depth int, visit func(*Node, int) bool) {
	if !visit(n, depth) {
		return
	}
	for _, c := range n.Children {
		c.walk(depth+1, visit)
	}
}

// Tree is a complete categorization of a result relation.
type Tree struct {
	Root *Node
	// R is the categorized result set.
	R *relation.Relation
	// LevelAttrs maps level l (1-based) to its categorizing attribute.
	LevelAttrs []string
	// K is the label-examination cost (relative to one tuple) the tree was
	// built and should be costed with.
	K float64
	// Trace, when the build recorded one (Categorizer.RecordTrace), is the
	// stats-independent structural record of the level-greedy search that
	// produced this tree — the input Repair needs to revalidate the tree
	// under a later statistics snapshot (DESIGN.md §13). Nil for baseline
	// builds, loaded trees, and untraced builds; Repair then falls back to a
	// full rebuild.
	Trace *BuildTrace
}

// NodeCount returns the number of category nodes, excluding the root.
func (t *Tree) NodeCount() int {
	count := -1
	t.Root.Walk(func(*Node, int) bool { count++; return true })
	return count
}

// LeafCount returns the number of leaf categories (including the root when
// the tree is trivial).
func (t *Tree) LeafCount() int {
	count := 0
	t.Root.Walk(func(n *Node, _ int) bool {
		if n.IsLeaf() {
			count++
		}
		return true
	})
	return count
}

// Depth returns the number of levels below the root.
func (t *Tree) Depth() int {
	max := 0
	t.Root.Walk(func(_ *Node, d int) bool {
		if d > max {
			max = d
		}
		return true
	})
	return max
}

// Validate checks the structural invariants of a valid hierarchical
// categorization (§3.1, DESIGN.md §6): children partition the parent's
// tuple-set, every tuple satisfies its node's label, each level uses one
// attribute, and no attribute repeats across levels.
func (t *Tree) Validate() error {
	if t.Root == nil {
		return fmt.Errorf("category: tree has no root")
	}
	if t.Root.Label.Kind != LabelAll {
		return fmt.Errorf("category: root label must be ALL, got %v", t.Root.Label)
	}
	seen := map[string]int{}
	levelAttr := map[int]string{}
	var verr error
	t.Root.Walk(func(n *Node, depth int) bool {
		if verr != nil {
			return false
		}
		if n.Label.Kind != LabelAll {
			key := strings.ToLower(n.Label.Attr)
			if prev, ok := levelAttr[depth]; ok && prev != key {
				verr = fmt.Errorf("category: level %d uses two attributes %q and %q", depth, prev, key)
				return false
			}
			levelAttr[depth] = key
			if prevDepth, ok := seen[key]; ok && prevDepth != depth {
				verr = fmt.Errorf("category: attribute %q used at levels %d and %d", key, prevDepth, depth)
				return false
			}
			seen[key] = depth
			match := t.R.Matcher(n.Label.Predicate())
			for _, i := range n.Tset {
				if !match(i) {
					verr = fmt.Errorf("category: tuple %d in %q violates its label", i, n.Label)
					return false
				}
			}
		}
		if !n.IsLeaf() {
			union := make(map[int]struct{}, len(n.Tset))
			total := 0
			for _, c := range n.Children {
				if !strings.EqualFold(c.Label.Attr, n.SubAttr) {
					verr = fmt.Errorf("category: child %q of %q does not use subcategorizing attribute %q",
						c.Label, n.Label, n.SubAttr)
					return false
				}
				total += len(c.Tset)
				for _, i := range c.Tset {
					union[i] = struct{}{}
				}
			}
			if total != len(union) {
				verr = fmt.Errorf("category: children of %q overlap (%d tuples, %d distinct)", n.Label, total, len(union))
				return false
			}
			if len(union) != len(n.Tset) {
				verr = fmt.Errorf("category: children of %q cover %d of %d tuples", n.Label, len(union), len(n.Tset))
				return false
			}
			for _, i := range n.Tset {
				if _, ok := union[i]; !ok {
					verr = fmt.Errorf("category: tuple %d of %q missing from children", i, n.Label)
					return false
				}
			}
		}
		return true
	})
	return verr
}

// PathPredicate returns the conjunction of labels from the root to the node
// reached by following child indexes path. It errors on an invalid path.
func (t *Tree) PathPredicate(path []int) (relation.Predicate, error) {
	preds := []relation.Predicate{}
	n := t.Root
	for _, i := range path {
		if i < 0 || i >= len(n.Children) {
			return nil, fmt.Errorf("category: path step %d out of range (node has %d children)", i, len(n.Children))
		}
		n = n.Children[i]
		preds = append(preds, n.Label.Predicate())
	}
	return relation.NewAnd(preds...), nil
}
