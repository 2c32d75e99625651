package hprefetch_test

import (
	"fmt"

	"hprefetch"
)

// ExampleAnalyzeWorkload runs the static, link-time half of Hierarchical
// Prefetching — call-graph construction and Algorithm 1 — on one of the
// paper's workloads, without any simulation.
func ExampleAnalyzeWorkload() {
	r, err := hprefetch.AnalyzeWorkload("gin")
	if err != nil {
		panic(err)
	}
	fmt.Printf("threshold: %dKB\n", r.ThresholdBytes>>10)
	fmt.Printf("entries found: %v\n", r.Entries > 100)
	fmt.Printf("tags cover entries: %v\n", r.TaggedInstructions >= r.Entries)
	// Output:
	// threshold: 200KB
	// entries found: true
	// tags cover entries: true
}

// ExampleSimulate measures one workload under the Hierarchical
// Prefetcher with a short smoke-test budget.
func ExampleSimulate() {
	st, err := hprefetch.Simulate("gin", hprefetch.Hierarchical, &hprefetch.Options{
		WarmInstr:    500_000,
		MeasureInstr: 500_000,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("simulated at least the requested instructions: %v\n", st.Instructions >= 500_000)
	fmt.Printf("positive IPC: %v\n", st.IPC > 0)
	// Output:
	// simulated at least the requested instructions: true
	// positive IPC: true
}

// ExampleWorkloads lists the paper's benchmark suite.
func ExampleWorkloads() {
	for _, w := range hprefetch.Workloads()[:3] {
		fmt.Println(w)
	}
	// Output:
	// beego
	// caddy
	// dgraph
}
