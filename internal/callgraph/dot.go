package callgraph

import (
	"fmt"
	"io"

	"hprefetch/internal/isa"
	"hprefetch/internal/program"
)

// WriteDOT renders a neighbourhood of the call graph in Graphviz DOT
// form, highlighting Bundle entry points — a debugging and paper-figure
// aid (Figure 5 of the paper is exactly such a drawing). The rendering
// starts from root and walks up to depth levels and at most maxNodes
// nodes, so the half-million-function graphs stay viewable.
func WriteDOT(w io.Writer, g *Graph, p *program.Program, a *Analysis, root isa.FuncID, depth, maxNodes int) error {
	if int(root) >= g.NumNodes() {
		return fmt.Errorf("callgraph: root %d out of range", root)
	}
	if depth <= 0 {
		depth = 3
	}
	if maxNodes <= 0 {
		maxNodes = 200
	}
	type qent struct {
		id isa.FuncID
		d  int
	}
	visited := map[isa.FuncID]bool{root: true}
	queue := []qent{{root, 0}}
	var nodes []isa.FuncID
	var edges [][2]isa.FuncID
	for len(queue) > 0 && len(nodes) < maxNodes {
		cur := queue[0]
		queue = queue[1:]
		nodes = append(nodes, cur.id)
		if cur.d >= depth {
			continue
		}
		for _, c := range g.Callees(cur.id) {
			cid := isa.FuncID(c)
			edges = append(edges, [2]isa.FuncID{cur.id, cid})
			if !visited[cid] {
				visited[cid] = true
				queue = append(queue, qent{cid, cur.d + 1})
			}
		}
	}

	if _, err := fmt.Fprintln(w, "digraph callgraph {"); err != nil {
		return err
	}
	fmt.Fprintln(w, `  rankdir=TB; node [shape=box, fontsize=10];`)
	inSet := map[isa.FuncID]bool{}
	for _, n := range nodes {
		inSet[n] = true
		// A saturated reach is a lower bound that depends on the search
		// order, so the cap is the figure worth printing.
		kb := fmt.Sprintf("%dKB", a.Reach[n]>>10)
		if a.Saturated[n] {
			kb = fmt.Sprintf("≥%dKB", a.Cap>>10)
		}
		label := p.FuncName(n) + `\n` + kb
		attrs := ""
		if a.IsEntry(n) {
			attrs = `, style=filled, fillcolor=lightgrey`
		}
		fmt.Fprintf(w, "  n%d [label=\"%s\"%s];\n", n, label, attrs)
	}
	for _, e := range edges {
		if inSet[e[0]] && inSet[e[1]] {
			fmt.Fprintf(w, "  n%d -> n%d;\n", e[0], e[1])
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
