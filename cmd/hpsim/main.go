// Command hpsim runs the reproduction's experiments: one simulation, one
// paper figure/table, or the full evaluation.
//
// Usage:
//
//	hpsim -list                            # every workload, scheme and experiment id
//	hpsim -experiment fig9                 # regenerate one figure
//	hpsim -experiment all                  # the whole evaluation
//	hpsim -experiment microservice -quick  # chain suite with per-request tails
//	hpsim -experiment all -parallel 8      # same tables, 8 cores
//	hpsim -workload tidb-tpcc -scheme Hierarchical
//	hpsim -experiment fig9 -quick          # fast smoke run
//	hpsim -experiment degradation -quick   # fault-injection degradation table
//	hpsim -workload gin -fault tag-flip:0.001
//	hpsim -experiment table2 -quick -digest  # reproducibility fingerprints
//	hpsim -workload gin -record gin.hpt      # capture a replayable trace
//	hpsim -workload gin -replay gin.hpt      # simulate from the trace
//	hpsim -experiment fig9 -tracedir traces/ # replay-backed experiment
//	hpsim -sweep -corpus corpus/ -quick      # corpus-resolved, self-healing replay
//	hpsim -workload gin -sample 50000,100000,800000  # interval-sampled run
//	hpsim -sweep -workloads gin,echo -schemes FDIP,Hierarchical -quick
//	hpsim -workload tidb-tpcc -scheme GHB -degree 4   # static degree override
//	hpsim -workload tidb-tpcc -scheme GHB -governed   # adaptive feedback throttling
//	hpsim -experiment throttling -quick               # static sweep vs governor table
//
// -sweep renders the same workload × scheme IPC table a fleet
// coordinator (hpserved -coordinator) aggregates across backends;
// determinism makes the two byte-identical, which CI exploits to
// cross-check the fleet path against a single-node run.
//
// With -digest, hpsim prints one stable fingerprint line per result
// instead of the full output. Simulations are deterministic, so the
// digest output is byte-identical across independent process
// invocations with the same flags; CI diffs two runs to catch
// nondeterminism or unintended behaviour drift. Replayed runs (-replay,
// -tracedir) carry the same guarantee: a trace recorded by -record
// yields the same digests as the live workload it captured.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"hprefetch"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id ("+strings.Join(hprefetch.ExperimentIDs(), ", ")+") or 'all'")
		workload   = flag.String("workload", "", "single-run mode: workload name ("+strings.Join(hprefetch.AllWorkloads(), ", ")+")")
		scheme     = flag.String("scheme", "Hierarchical", "single-run mode: one of "+schemeNames())
		format     = flag.String("format", "text", "experiment output: text or csv")
		digest     = flag.Bool("digest", false, "print stable result fingerprints instead of full output (reproducibility checks)")
		record     = flag.String("record", "", "capture -workload's event stream to this trace file instead of simulating")
		sweep      = flag.Bool("sweep", false, "run a workload × scheme IPC sweep (the table a fleet coordinator produces)")
		schemes    = flag.String("schemes", "", "comma-separated scheme subset for -sweep (default: all evaluated schemes)")
		list       = flag.Bool("list", false, "print every known workload, scheme and experiment id (sorted) and exit")
	)
	opt := &hprefetch.Options{}
	bindFlags(flag.CommandLine, opt)
	flag.Parse()

	if *list {
		fmt.Println("workloads:")
		for _, w := range hprefetch.AllWorkloads() {
			fmt.Println("  " + w)
		}
		names := make([]string, 0, len(hprefetch.AllSchemes()))
		for _, s := range hprefetch.AllSchemes() {
			names = append(names, string(s))
		}
		sort.Strings(names)
		fmt.Println("schemes:")
		for _, s := range names {
			fmt.Println("  " + s)
		}
		ids := append([]string{}, hprefetch.ExperimentIDs()...)
		sort.Strings(ids)
		fmt.Println("experiments:")
		for _, id := range ids {
			fmt.Println("  " + id)
		}
		return
	}

	switch {
	case *record != "":
		if *workload == "" {
			fatal(fmt.Errorf("-record requires -workload"))
		}
		sum, err := hprefetch.RecordTrace(*workload, *record, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %s: %d events (%d instructions, %d requests) in %d frames, %d bytes\n",
			*record, sum.Events, sum.Instructions, sum.Requests, sum.Frames, sum.FileBytes)
	case *sweep:
		var schemeList []string
		if *schemes != "" {
			schemeList = strings.Split(*schemes, ",")
		}
		t, err := hprefetch.RunSweep(schemeList, opt)
		if err != nil {
			fatal(err)
		}
		emit(t, *format, *digest)
	case *workload != "":
		st, err := hprefetch.Simulate(*workload, hprefetch.Scheme(*scheme), opt)
		if err != nil {
			fatal(err)
		}
		if *digest {
			fmt.Printf("%s/%s\t%s\n", st.Workload, st.Scheme, st.StatsDigest)
			return
		}
		fmt.Printf("workload:  %s\nscheme:    %s\nmachine:   %s\n", st.Workload, st.Scheme, hprefetch.MachineDescription())
		fmt.Printf("IPC:       %.3f  (%+.1f%% vs FDIP)\n", st.IPC, st.SpeedupOverFDIP*100)
		if opt.Fault != "" {
			fmt.Printf("faults:    %s  (loader tag drops %d, bundle rejects %d)\n",
				opt.Fault, st.TagDrops, st.BundleRejects)
		}
		if st.SampleIntervals > 0 {
			fmt.Printf("sampling:  %d intervals, IPC %.3f ± %.3f, %.0f%% detailed\n",
				st.SampleIntervals, st.SampleIPCMean, st.SampleIPCStdErr, st.SampleDetailedFrac*100)
		}
		if g := st.Governor; g != nil && g.Intervals > 0 {
			fmt.Printf("governor:  %d intervals, %d up / %d down, final %s\n",
				g.Intervals, g.StepUps, g.StepDowns, g.Level)
			if sched := g.Schedule(); sched != "" {
				fmt.Printf("schedule:  %s\n", sched)
			}
		}
		if st.TLBDropped > 0 {
			fmt.Printf("tlb:       %.1f%% candidate pages missed, %d prefetches dropped\n",
				st.TLBMissFraction*100, st.TLBDropped)
		}
		fmt.Printf("branches:  %.2f MPKI   L1-I clean misses: %.2f MPKI\n", st.BranchMPKI, st.L1IMPKI)
		if st.Scheme != hprefetch.FDIP && st.Scheme != hprefetch.PerfectL1I {
			fmt.Printf("prefetch:  acc %.1f%%  covL1 %.1f%%  covL2 %.1f%%  late %.1f%%  dist %.1f blocks\n",
				st.PrefetchAccuracy*100, st.CoverageL1*100, st.CoverageL2*100,
				st.LateFraction*100, st.AvgPrefetchDistance)
		}
	case *experiment == "all":
		tables, err := hprefetch.RunAllExperiments(opt)
		for _, t := range tables {
			emit(t, *format, *digest)
		}
		if err != nil {
			fatal(err)
		}
	case *experiment != "":
		t, err := hprefetch.RunExperiment(*experiment, opt)
		if err != nil {
			fatal(err)
		}
		emit(t, *format, *digest)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// bindFlags binds every run knob hpsim exposes straight onto sp. -replay
// and -tracedir both name sp.TracePath, which takes a trace file or a
// directory of <workload>.hpt traces alike.
func bindFlags(fs *flag.FlagSet, sp *hprefetch.Options) {
	fs.Uint64Var(&sp.WarmInstr, "warm", 0, "warmup instructions (0 = default)")
	fs.Uint64Var(&sp.MeasureInstr, "measure", 0, "measured instructions (0 = default)")
	fs.BoolVar(&sp.Quick, "quick", false, "fast smoke configuration")
	fs.Func("workloads", "comma-separated workload subset for experiments and -sweep", func(s string) error {
		sp.Workloads = nil
		if s != "" {
			sp.Workloads = strings.Split(s, ",")
		}
		return nil
	})
	fs.StringVar(&sp.Fault, "fault", "", "inject a fault: class[:rate[:seed]] with class in "+strings.Join(hprefetch.FaultClasses(), ", "))
	fs.IntVar(&sp.Parallel, "parallel", 1, "concurrent simulations for experiment sweeps (tables stay byte-identical to a serial run)")
	fs.StringVar(&sp.Sample, "sample", "", "interval sampling spec warm,measure,skip[,seed] in instructions (empty = exact simulation)")
	fs.StringVar(&sp.TracePath, "replay", "", "replay the event stream from this recorded trace instead of running live")
	fs.StringVar(&sp.TracePath, "tracedir", "", "replay workloads with a trace at <dir>/<workload>.hpt, run the rest live")
	fs.StringVar(&sp.CorpusDir, "corpus", "", "resolve workloads through the content-addressed trace corpus at this directory (self-healing replay)")
	fs.IntVar(&sp.PFDegree, "degree", 0, "static prefetch degree override for tunable schemes (0 = scheme default)")
	fs.BoolVar(&sp.Governed, "governed", false, "attach the adaptive feedback throttling governor (tunable schemes only)")
}

func emit(t *hprefetch.Table, format string, digest bool) {
	if digest {
		fmt.Printf("%s\t%s\n", t.ID, t.Digest())
		return
	}
	if format == "csv" {
		fmt.Printf("# %s — %s\n%s\n", t.ID, t.Title, t.CSV())
		return
	}
	t.Fprint(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hpsim:", err)
	os.Exit(1)
}

// schemeNames renders the full scheme registry for flag help.
func schemeNames() string {
	names := make([]string, 0, len(hprefetch.AllSchemes()))
	for _, s := range hprefetch.AllSchemes() {
		names = append(names, string(s))
	}
	return strings.Join(names, ", ")
}
