package experiments

import (
	"fmt"
	"time"

	"repro/internal/category"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/stats"
)

// Ablations probe the design choices the paper motivates but does not
// isolate: category ordering (Appendix A vs the P-ordering heuristic),
// goodness-driven splitpoints vs equi-width buckets, the attribute
// elimination threshold x, and the label cost K.

// sampleTrees builds cost-based trees for the first n broadened workload
// queries, returning trees plus their user queries.
func sampleTrees(env *Env, n int, opts category.Options) ([]*category.Tree, error) {
	cat := category.NewCategorizer(env.FullStats, opts)
	est := &category.Estimator{Stats: env.FullStats}
	var trees []*category.Tree
	seen := map[string]bool{}
	for _, w := range env.W.Queries {
		qw, ok := datagen.Broaden(w)
		if !ok {
			continue
		}
		region := qw.Cond(datagen.AttrNeighborhood).Values[0]
		if seen[region] {
			continue // one tree per region keeps the sample diverse
		}
		rows := env.R.Select(qw.Predicate())
		if len(rows) == 0 {
			continue
		}
		tree, err := cat.CategorizeRows(env.R, qw, rows)
		if err != nil {
			return nil, err
		}
		est.Annotate(tree)
		trees = append(trees, tree)
		seen[region] = true
		if len(trees) == n {
			break
		}
	}
	if len(trees) == 0 {
		return nil, fmt.Errorf("experiments: no trees for ablation sample")
	}
	return trees, nil
}

// OrderingAblation compares the expected ONE-scenario cost of three child
// orderings on the same trees: the construction order (P-descending for
// categorical levels, value-ascending for numeric — the paper's heuristic),
// the Appendix-A optimal order, and the reverse of the optimal (a worst-ish
// case).
type OrderingAblation struct {
	Heuristic float64 // avg CostOne, construction order
	Optimal   float64 // avg CostOne, K/P+Cost ascending
	Reversed  float64 // avg CostOne, optimal order reversed
	Trees     int
}

// AblationOrdering measures the OrderingAblation over sample trees.
func AblationOrdering(env *Env, n int) (*OrderingAblation, error) {
	opts := category.Options{M: env.Cfg.M, K: env.Cfg.K, X: env.Cfg.X}
	trees, err := sampleTrees(env, n, opts)
	if err != nil {
		return nil, err
	}
	out := &OrderingAblation{Trees: len(trees)}
	frac := 0.5
	for _, tree := range trees {
		out.Heuristic += category.TreeCostOne(tree, frac)
		category.OrderTreeOptimalOne(tree, frac)
		out.Optimal += category.TreeCostOne(tree, frac)
		reverseTree(tree)
		out.Reversed += category.TreeCostOne(tree, frac)
	}
	f := float64(len(trees))
	out.Heuristic /= f
	out.Optimal /= f
	out.Reversed /= f
	return out, nil
}

func reverseTree(t *category.Tree) {
	t.Root.Walk(func(n *category.Node, _ int) bool {
		for i, j := 0, len(n.Children)-1; i < j; i, j = i+1, j-1 {
			n.Children[i], n.Children[j] = n.Children[j], n.Children[i]
		}
		return true
	})
}

// SplitAblation compares goodness-driven numeric partitioning against
// equi-width and equi-depth buckets while holding the attribute sequence
// fixed: the naive trees are built by the No-cost partitioner constrained to
// the cost-based tree's own level attributes.
type SplitAblation struct {
	GoodnessCost float64 // avg estimated CostAll, cost-based partitions
	EquiWidth    float64 // avg estimated CostAll, equi-width partitions
	EquiDepth    float64 // avg estimated CostAll, equi-depth partitions
	Trees        int
}

// AblationSplitpoints measures the SplitAblation over sample trees.
func AblationSplitpoints(env *Env, n int) (*SplitAblation, error) {
	opts := category.Options{M: env.Cfg.M, K: env.Cfg.K, X: env.Cfg.X}
	est := &category.Estimator{Stats: env.FullStats}
	out := &SplitAblation{}
	seen := map[string]bool{}
	cat := category.NewCategorizer(env.FullStats, opts)
	for _, w := range env.W.Queries {
		qw, ok := datagen.Broaden(w)
		if !ok {
			continue
		}
		region := qw.Cond(datagen.AttrNeighborhood).Values[0]
		if seen[region] {
			continue
		}
		rows := env.R.Select(qw.Predicate())
		if len(rows) == 0 {
			continue
		}
		good, err := cat.CategorizeRows(env.R, qw, rows)
		if err != nil {
			return nil, err
		}
		est.Annotate(good)
		if len(good.LevelAttrs) == 0 {
			continue
		}
		naiveOpts := opts
		naiveOpts.CandidateAttrs = good.LevelAttrs
		width, err := (&category.Baseline{Stats: env.FullStats, Opts: naiveOpts, Kind: category.NoCost}).
			CategorizeRows(env.R, qw, rows)
		if err != nil {
			return nil, err
		}
		est.Annotate(width)
		depthOpts := naiveOpts
		depthOpts.EquiDepth = true
		depth, err := (&category.Baseline{Stats: env.FullStats, Opts: depthOpts, Kind: category.NoCost}).
			CategorizeRows(env.R, qw, rows)
		if err != nil {
			return nil, err
		}
		est.Annotate(depth)
		out.GoodnessCost += category.TreeCostAll(good)
		out.EquiWidth += category.TreeCostAll(width)
		out.EquiDepth += category.TreeCostAll(depth)
		out.Trees++
		seen[region] = true
		if out.Trees == n {
			break
		}
	}
	if out.Trees == 0 {
		return nil, fmt.Errorf("experiments: no trees for splitpoint ablation")
	}
	f := float64(out.Trees)
	out.GoodnessCost /= f
	out.EquiWidth /= f
	out.EquiDepth /= f
	return out, nil
}

// XPoint is one attribute-elimination sweep point.
type XPoint struct {
	X          float64
	Candidates int     // attributes surviving elimination
	AvgCost    float64 // avg estimated CostAll of the resulting trees
	AvgBuild   float64 // avg categorization seconds
}

// AblationX sweeps the elimination threshold: small x admits many cold
// attributes (slower search, rarely better trees); large x starves the
// categorizer of attributes.
func AblationX(env *Env, xs []float64, n int) ([]XPoint, error) {
	var out []XPoint
	for _, x := range xs {
		opts := category.Options{M: env.Cfg.M, K: env.Cfg.K, X: x}
		if x == 0 {
			opts.X = 1e-9 // zero means "default" to Options; ~0 admits all seen attrs
		}
		cat := category.NewCategorizer(env.FullStats, opts)
		var (
			cost  float64
			build time.Duration
			count int
		)
		seen := map[string]bool{}
		est := &category.Estimator{Stats: env.FullStats}
		for _, w := range env.W.Queries {
			qw, ok := datagen.Broaden(w)
			if !ok {
				continue
			}
			region := qw.Cond(datagen.AttrNeighborhood).Values[0]
			if seen[region] {
				continue
			}
			rows := env.R.Select(qw.Predicate())
			if len(rows) == 0 {
				continue
			}
			start := time.Now()
			tree, err := cat.CategorizeRows(env.R, qw, rows)
			build += time.Since(start)
			if err != nil {
				return nil, err
			}
			est.Annotate(tree)
			cost += category.TreeCostAll(tree)
			count++
			seen[region] = true
			if count == n {
				break
			}
		}
		if count == 0 {
			return nil, fmt.Errorf("experiments: no trees for x=%v", x)
		}
		out = append(out, XPoint{
			X:          x,
			Candidates: len(env.FullStats.Retained(opts.X)),
			AvgCost:    cost / float64(count),
			AvgBuild:   build.Seconds() / float64(count),
		})
	}
	return out, nil
}

// KPoint is one label-cost sweep point: how the chosen level-1 attribute and
// the estimated cost respond to K.
type KPoint struct {
	K          float64
	Level1Attr string
	AvgCost    float64
	AvgDepth   float64
}

// AblationK sweeps the label-examination cost K. Larger K penalizes wide
// SHOWCAT levels, pushing the optimizer toward coarser trees.
func AblationK(env *Env, ks []float64, n int) ([]KPoint, error) {
	var out []KPoint
	for _, k := range ks {
		opts := category.Options{M: env.Cfg.M, K: k, X: env.Cfg.X}
		trees, err := sampleTrees(env, n, opts)
		if err != nil {
			return nil, err
		}
		var (
			cost, depth float64
			attr        string
		)
		for _, tree := range trees {
			cost += category.TreeCostAll(tree)
			depth += float64(tree.Depth())
			if attr == "" && len(tree.LevelAttrs) > 0 {
				attr = tree.LevelAttrs[0]
			}
		}
		out = append(out, KPoint{
			K:          k,
			Level1Attr: attr,
			AvgCost:    cost / float64(len(trees)),
			AvgDepth:   depth / float64(len(trees)),
		})
	}
	return out, nil
}

// OrderingGapSummary reports how often and by how much the heuristic
// ordering trails the optimal one, as a fraction.
func (o *OrderingAblation) OrderingGapSummary() string {
	if o.Optimal == 0 {
		return "n/a"
	}
	gap := (o.Heuristic - o.Optimal) / o.Optimal
	return fmt.Sprintf("heuristic +%.2f%% vs optimal; reversed +%.2f%%",
		100*gap, 100*(o.Reversed-o.Optimal)/o.Optimal)
}

// GreedyOptimality measures how close the Figure 6 greedy gets to the §5
// enumerative optimum on down-sampled instances (the exhaustive search is
// only feasible on small inputs).
type GreedyOptimality struct {
	Instances  int
	AvgRatio   float64 // mean greedy/optimal CostAll
	WorstRatio float64
	TreesTried int // total trees the enumerations evaluated
}

// AblationGreedyOptimal subsamples n region queries down to sampleRows
// tuples each and compares the greedy tree's cost with the bounded
// exhaustive optimum.
func AblationGreedyOptimal(env *Env, n, sampleRows int) (*GreedyOptimality, error) {
	opts := category.Options{
		M: env.Cfg.M, K: env.Cfg.K, X: env.Cfg.X,
		MaxBuckets: 3, MinBucket: 1,
		CandidateAttrs: []string{datagen.AttrNeighborhood, datagen.AttrPrice, datagen.AttrBedrooms},
	}
	cat := category.NewCategorizer(env.FullStats, opts)
	out := &GreedyOptimality{}
	seen := map[string]bool{}
	var ratios []float64
	for _, w := range env.W.Queries {
		qw, ok := datagen.Broaden(w)
		if !ok {
			continue
		}
		region := qw.Cond(datagen.AttrNeighborhood).Values[0]
		if seen[region] {
			continue
		}
		rows := env.R.Select(qw.Predicate())
		if len(rows) == 0 {
			continue
		}
		if len(rows) > sampleRows {
			rows = rows[:sampleRows]
		}
		// Build a standalone sub-relation so the enumeration's Select(nil)
		// sees exactly the sample.
		sub := subRelation(env, rows)
		tree, err := cat.CategorizeRows(sub, qw, sub.Select(nil))
		if err != nil {
			return nil, err
		}
		best, trees, err := cat.OptimalCostAll(sub, qw, category.EnumerateLimits{MaxSplitpoints: 4, MaxTrees: 100000})
		if err != nil {
			return nil, err
		}
		greedy := category.TreeCostAll(tree)
		ratio := greedy / best
		ratios = append(ratios, ratio)
		if ratio > out.WorstRatio {
			out.WorstRatio = ratio
		}
		out.TreesTried += trees
		out.Instances++
		seen[region] = true
		if out.Instances == n {
			break
		}
	}
	if out.Instances == 0 {
		return nil, fmt.Errorf("experiments: no instances for greedy-vs-optimal ablation")
	}
	out.AvgRatio = stats.Mean(ratios)
	return out, nil
}

// subRelation copies the given rows of the environment's relation into a
// fresh relation (same schema), so row indices run 0..n-1.
func subRelation(env *Env, rows []int) *relation.Relation {
	sub := relation.New(env.R.Name, env.R.Schema())
	if err := sub.AppendPages(env.R.Gather(rows)); err != nil {
		panic(err) // unreachable: the pages come from a relation of the same schema
	}
	return sub
}
