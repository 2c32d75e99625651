// Quickstart: simulate one server workload under the FDIP baseline and
// under Hierarchical Prefetching, and print the headline comparison.
//
//	go run ./examples/quickstart
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
	const workload = "tidb-tpcc"

	fmt.Println("simulated machine:", hprefetch.MachineDescription())
	fmt.Printf("workload: %s\n\n", workload)

	base, err := hprefetch.Simulate(workload, hprefetch.FDIP, opt)
	if err != nil {
		log.Fatal(err)
	}
	hier, err := hprefetch.Simulate(workload, hprefetch.Hierarchical, opt)
	if err != nil {
		log.Fatal(err)
	}
	perfect, err := hprefetch.Simulate(workload, hprefetch.PerfectL1I, opt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("FDIP baseline:            IPC %.3f\n", base.IPC)
	fmt.Printf("Hierarchical Prefetching: IPC %.3f (%+.1f%%)\n", hier.IPC, hier.SpeedupOverFDIP*100)
	fmt.Printf("Perfect L1-I bound:       IPC %.3f (%+.1f%%)\n\n", perfect.IPC, perfect.SpeedupOverFDIP*100)
	fmt.Printf("Hierarchical prefetch behaviour: accuracy %.1f%%, L1 coverage %.1f%%, "+
		"L2 coverage %.1f%%, late %.1f%%, avg distance %.1f blocks\n",
		hier.PrefetchAccuracy*100, hier.CoverageL1*100,
		hier.CoverageL2*100, hier.LateFraction*100, hier.AvgPrefetchDistance)
}
