package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro"
)

// jsonNode and jsonResponse mirror the /v1/query rendering fields the
// invariant checker reads.
type jsonNode struct {
	Label    string     `json:"label"`
	Attr     string     `json:"attr"`
	Count    int        `json:"count"`
	P        float64    `json:"p"`
	Pw       float64    `json:"pw"`
	Children []jsonNode `json:"children"`
	Elided   int        `json:"elided"`
}

type jsonResponse struct {
	ResultCount int      `json:"resultCount"`
	Tree        jsonNode `json:"tree"`
}

// numericAttrs returns the lower-cased names of the schema's numeric
// attributes: their levels are ordered by value, the others by probability.
func numericAttrs(s *repro.Schema) map[string]bool {
	out := make(map[string]bool)
	for _, a := range s.Attrs() {
		if a.Type == repro.Numeric {
			out[strings.ToLower(a.Name)] = true
		}
	}
	return out
}

// checkBody decodes a /v1/query response body and checks the paper's tree
// invariants on it (see checkTree).
func checkBody(body []byte, numeric map[string]bool) error {
	var r jsonResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("response is not a query result: %v", err)
	}
	return checkTree(&r, numeric)
}

// checkTree checks the invariants every categorization must keep (§3.1,
// §5.1.2, §5.1.3): the root holds the whole result; each level uses one
// attribute; children's counts partition their parent (when no child was
// elided by the response bounds); P and Pw lie in [0,1]; categorical
// siblings come in non-increasing P order and numeric siblings in
// ascending, non-overlapping ranges.
func checkTree(r *jsonResponse, numeric map[string]bool) error {
	if r.Tree.Count != r.ResultCount {
		return fmt.Errorf("root count %d != resultCount %d", r.Tree.Count, r.ResultCount)
	}
	return checkNode(&r.Tree, "ALL", numeric)
}

func checkNode(n *jsonNode, path string, numeric map[string]bool) error {
	if !(n.P >= 0 && n.P <= 1) || !(n.Pw >= 0 && n.Pw <= 1) {
		return fmt.Errorf("%s: P=%v Pw=%v outside [0,1]", path, n.P, n.Pw)
	}
	if len(n.Children) == 0 {
		return nil
	}
	attr := n.Children[0].Attr
	isNum := numeric[strings.ToLower(attr)]
	sum := 0
	prevHi := math.Inf(-1)
	for i := range n.Children {
		c := &n.Children[i]
		cpath := path + " > " + c.Label
		if c.Attr != attr {
			return fmt.Errorf("%s: level mixes attributes %q and %q", cpath, attr, c.Attr)
		}
		if c.Count < 0 {
			return fmt.Errorf("%s: negative count %d", cpath, c.Count)
		}
		sum += c.Count
		if isNum {
			lo, hi, err := parseRange(c.Label, c.Attr)
			if err != nil {
				return fmt.Errorf("%s: %v", cpath, err)
			}
			if lo < prevHi || hi < lo {
				return fmt.Errorf("%s: numeric ranges not ascending and disjoint", cpath)
			}
			prevHi = hi
		} else if i > 0 && c.P > n.Children[i-1].P {
			return fmt.Errorf("%s: P %v above preceding sibling's %v", cpath, c.P, n.Children[i-1].P)
		}
		if err := checkNode(c, cpath, numeric); err != nil {
			return err
		}
	}
	if n.Elided == 0 && sum != n.Count {
		return fmt.Errorf("%s: children hold %d of %d tuples", path, sum, n.Count)
	}
	if sum > n.Count {
		return fmt.Errorf("%s: children hold %d tuples, more than the parent's %d", path, sum, n.Count)
	}
	return nil
}

// parseRange reads a numeric category label, "attr: lo-hi", where either
// bound may be "min" or "max".
func parseRange(label, attr string) (lo, hi float64, err error) {
	rest, ok := strings.CutPrefix(label, attr+": ")
	if !ok {
		return 0, 0, fmt.Errorf("label %q lacks the %q prefix", label, attr)
	}
	// The first bound may itself carry a minus sign.
	cut := strings.Index(rest[min(1, len(rest)):], "-")
	if cut < 0 {
		return 0, 0, fmt.Errorf("label %q is not a range", label)
	}
	cut += min(1, len(rest))
	if lo, err = parseBound(rest[:cut]); err != nil {
		return 0, 0, err
	}
	if hi, err = parseBound(rest[cut+1:]); err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

func parseBound(s string) (float64, error) {
	switch s {
	case "min":
		return math.Inf(-1), nil
	case "max":
		return math.Inf(1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("range bound %q: %v", s, err)
	}
	return v, nil
}
