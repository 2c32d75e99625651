// Command hpbundle runs the static, link-time half of Hierarchical
// Prefetching on its own: it generates a workload binary, builds the call
// graph, runs the Bundle identification pass (Algorithm 1), and reports
// what would be written into the .bundles segment.
//
// Usage:
//
//	hpbundle                    # analyse every workload
//	hpbundle -workload tidb-tpcc
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hprefetch"
	"hprefetch/internal/callgraph"
	"hprefetch/internal/workloads"
)

func main() {
	workload := flag.String("workload", "", "workload to analyse (default: all)")
	dot := flag.String("dot", "", "write a Graphviz DOT neighbourhood of the request loop to this file (requires -workload)")
	depth := flag.Int("depth", 3, "DOT: levels below the request loop")
	maxNodes := flag.Int("maxnodes", 150, "DOT: node budget")
	flag.Parse()

	if *dot != "" {
		if *workload == "" {
			fmt.Fprintln(os.Stderr, "hpbundle: -dot requires -workload")
			os.Exit(2)
		}
		l, err := workloads.Link(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hpbundle:", err)
			os.Exit(1)
		}
		f, err := os.Create(*dot)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hpbundle:", err)
			os.Exit(1)
		}
		defer f.Close()
		err = callgraph.WriteDOT(f, l.Graph, l.Prog, l.Analysis, l.Prog.Entry, *depth, *maxNodes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hpbundle:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (Bundle entries shaded, Figure 5 style)\n", *dot)
	}

	names := hprefetch.Workloads()
	if *workload != "" {
		names = []string{*workload}
	}
	if err := writeTable(os.Stdout, names); err != nil {
		fmt.Fprintln(os.Stderr, "hpbundle:", err)
		os.Exit(1)
	}
}

// writeTable prints one row per workload: its function count, Bundle
// entries and tagged instructions, and its text size.
func writeTable(w io.Writer, names []string) error {
	fmt.Fprintf(w, "%-16s %12s %10s %9s %10s %10s\n",
		"workload", "functions", "entries", "entry%", "tagged", "text(MB)")
	for _, n := range names {
		r, err := hprefetch.AnalyzeWorkload(n)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-16s %12d %10d %8.2f%% %10d %10.1f\n",
			r.Workload, r.TotalFunctions, r.Entries, r.EntryFraction*100,
			r.TaggedInstructions, float64(r.TextBytes)/1e6)
	}
	return nil
}
