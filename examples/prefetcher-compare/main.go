// Prefetcher shoot-out: every scheme across a web workload, an OLTP
// workload and a graph database — the Figure 9 story in miniature, with
// the per-scheme coverage/timeliness detail of Table 2 and Figure 10.
//
//	go run ./examples/prefetcher-compare
package main

import (
	"fmt"
	"log"

	"hprefetch"
)

func main() {
	opt := &hprefetch.Options{
		WarmInstr:    2_000_000,
		MeasureInstr: 4_000_000,
	}
	workloadSet := []string{"gin", "mysql-sysbench", "dgraph"}

	for _, w := range workloadSet {
		fmt.Printf("== %s ==\n", w)
		fmt.Printf("  %-13s %7s %9s %7s %7s %7s %7s %8s\n",
			"scheme", "IPC", "speedup", "acc", "covL1", "covL2", "late", "dist")
		for _, s := range hprefetch.Schemes() {
			st, err := hprefetch.Simulate(w, s, opt)
			if err != nil {
				log.Fatal(err)
			}
			if s == hprefetch.FDIP {
				fmt.Printf("  %-13s %7.3f %9s\n", s, st.IPC, "—")
				continue
			}
			fmt.Printf("  %-13s %7.3f %+8.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%% %8.1f\n",
				s, st.IPC, st.SpeedupOverFDIP*100,
				st.PrefetchAccuracy*100, st.CoverageL1*100, st.CoverageL2*100,
				st.LateFraction*100, st.AvgPrefetchDistance)
		}
		perfect, err := hprefetch.Simulate(w, hprefetch.PerfectL1I, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-13s %7.3f %+8.1f%%\n\n", "PerfectL1I", perfect.IPC, perfect.SpeedupOverFDIP*100)
	}
}
