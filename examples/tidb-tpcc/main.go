// The paper's motivating scenario (Figure 1): TiDB processing a TPC-C
// mix. This example prints the per-stage instruction footprints that
// motivate Bundle-granularity prefetching, then shows what each
// prefetcher achieves on this workload.
//
//	go run ./examples/tidb-tpcc
package main

import (
	"fmt"
	"log"
	"os"

	"hprefetch"
)

func main() {
	opt := &hprefetch.Options{
		Workloads:    []string{"tidb-tpcc"},
		WarmInstr:    2_000_000,
		MeasureInstr: 5_000_000,
	}

	fig1, err := hprefetch.RunExperiment("fig1", opt)
	if err != nil {
		log.Fatal(err)
	}
	fig1.Fprint(os.Stdout)

	report, err := hprefetch.AnalyzeWorkload("tidb-tpcc")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static analysis: %d of %d functions are Bundle entries (%.2f%%), %d tagged instructions\n\n",
		report.Entries, report.TotalFunctions, report.EntryFraction*100, report.TaggedInstructions)

	fmt.Println("prefetcher comparison on tidb-tpcc:")
	for _, s := range hprefetch.Schemes() {
		st, err := hprefetch.Simulate("tidb-tpcc", s, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-13s IPC %.3f  (%+.1f%%)\n", s, st.IPC, st.SpeedupOverFDIP*100)
	}
}
