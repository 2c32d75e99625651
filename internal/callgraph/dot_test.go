package callgraph

import (
	"fmt"
	"strings"
	"testing"

	"hprefetch/internal/isa"
	"hprefetch/internal/program"
)

func TestWriteDOT(t *testing.T) {
	cfg := program.DefaultConfig()
	cfg.Name = "dot-test"
	cfg.Seed = 91
	cfg.OrphanFuncs = 100
	p, err := program.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := FromProgram(p)
	a, err := Analyze(g, Options{Threshold: DefaultThreshold})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteDOT(&b, g, p, a, p.Entry, 2, 50); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"digraph", "serve_loop", "->", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	// Entry highlighting appears when any entry is within the window.
	if !strings.Contains(out, "fillcolor") && len(a.Entries) > 0 {
		t.Log("no entries within 2 levels of root (acceptable)")
	}
	// Every label prints the exact reach, or the cap for a saturated
	// node, whose partial sum would depend on the search order.
	saturated := 0
	for _, line := range strings.Split(out, "\n") {
		var id isa.FuncID
		if _, err := fmt.Sscanf(line, "  n%d [label=", &id); err != nil {
			continue
		}
		want := fmt.Sprintf("%s\\n%dKB\"", p.FuncName(id), a.Reach[id]>>10)
		if a.Saturated[id] {
			saturated++
			want = fmt.Sprintf("%s\\n≥%dKB\"", p.FuncName(id), (4*DefaultThreshold)>>10)
		}
		if !strings.Contains(line, want) {
			t.Errorf("node %d: label line %q, want it to contain %q", id, line, want)
		}
	}
	if saturated == 0 {
		t.Error("no saturated node in the window; the cap label went untested")
	}
	// Bounds respected.
	if n := strings.Count(out, "label="); n > 50 {
		t.Errorf("maxNodes exceeded: %d nodes", n)
	}
	if err := WriteDOT(&b, g, p, a, 1<<30, 2, 50); err == nil {
		t.Error("out-of-range root accepted")
	}
}
