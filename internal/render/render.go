// Package render produces the textual views of category trees and result
// tables that the CLI, the examples, and the experiment reports print — the
// plain-text equivalent of the paper's treeview control.
package render

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/category"
	"repro/internal/relation"
)

// TreeOptions controls tree rendering.
type TreeOptions struct {
	// MaxDepth limits how many levels are printed; 0 means all.
	MaxDepth int
	// MaxChildren limits children printed per node; 0 means all. A summary
	// line reports elisions.
	MaxChildren int
	// ShowProbabilities appends P and Pw to each line.
	ShowProbabilities bool
	// ShowTuples prints the tuples under each leaf (requires Relation).
	ShowTuples bool
	// MaxTuples limits tuples printed per leaf when ShowTuples is set.
	MaxTuples int
}

// Tree writes an indented rendering of the category tree to w.
func Tree(w io.Writer, t *category.Tree, opts TreeOptions) error {
	var err error
	write := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	var rec func(n *category.Node, depth int)
	rec = func(n *category.Node, depth int) {
		if err != nil {
			return
		}
		indent := strings.Repeat("  ", depth)
		line := fmt.Sprintf("%s%s (%d)", indent, n.Label, n.Size())
		if opts.ShowProbabilities {
			line += fmt.Sprintf("  [P=%.3f Pw=%.3f]", n.P, n.Pw)
		}
		write("%s\n", line)
		if n.IsLeaf() {
			if opts.ShowTuples && t.R != nil {
				limit := len(n.Tset)
				if opts.MaxTuples > 0 && limit > opts.MaxTuples {
					limit = opts.MaxTuples
				}
				for _, i := range n.Tset[:limit] {
					write("%s  · %s\n", indent, RowString(t.R, i))
				}
				if limit < len(n.Tset) {
					write("%s  · … %d more\n", indent, len(n.Tset)-limit)
				}
			}
			return
		}
		if opts.MaxDepth > 0 && depth+1 > opts.MaxDepth {
			write("%s  … %d subcategories\n", indent, len(n.Children))
			return
		}
		limit := len(n.Children)
		if opts.MaxChildren > 0 && limit > opts.MaxChildren {
			limit = opts.MaxChildren
		}
		for _, c := range n.Children[:limit] {
			rec(c, depth+1)
		}
		if limit < len(n.Children) {
			write("%s  … %d more categories\n", indent, len(n.Children)-limit)
		}
	}
	rec(t.Root, 0)
	return err
}

// TreeString renders the tree to a string.
func TreeString(t *category.Tree, opts TreeOptions) string {
	var b strings.Builder
	// strings.Builder writes cannot fail.
	_ = Tree(&b, t, opts)
	return b.String()
}

// RowString renders one tuple as "attr=value" pairs for the first few
// attributes (location, price, and size columns first when present).
func RowString(r *relation.Relation, row int) string {
	s := r.Schema()
	parts := make([]string, 0, 6)
	limit := s.Len()
	if limit > 6 {
		limit = 6
	}
	for i := 0; i < limit; i++ {
		a := s.Attr(i)
		if a.Type == relation.Categorical {
			parts = append(parts, fmt.Sprintf("%s=%s", a.Name, r.Cell(row, i).Str))
		} else {
			parts = append(parts, fmt.Sprintf("%s=%g", a.Name, r.Cell(row, i).Num))
		}
	}
	if s.Len() > limit {
		parts = append(parts, "…")
	}
	return strings.Join(parts, " ")
}

// Table writes rows as a fixed-width text table. headers names the columns;
// each row must have the same width.
func Table(w io.Writer, headers []string, rows [][]string) error {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(headers))
		for i := range headers {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			parts[i] = pad(cell, widths[i])
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(headers)); err != nil {
		return err
	}
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, strings.Join(sep, "  ")); err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
