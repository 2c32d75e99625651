// Command hptrace works with workload instruction streams: the default
// mode inspects a stream (stage footprints — the Figure 1 view — plus a
// baseline simulation), and subcommands record, summarise and verify
// on-disk trace files.
//
// Usage:
//
//	hptrace -workload tidb-tpcc -instructions 4000000
//	hptrace record -workload gin -instructions 6000000 -o gin.hpt
//	hptrace info gin.hpt
//	hptrace verify gin.hpt
//	hptrace corpus ingest -dir corpus gin.hpt
//	hptrace corrupt -spec trace-bitrot::7 gin.hpt
//
// verify decodes the whole trace into memory (67 bytes an event, about
// 8 bytes an instruction), replays it against a fresh execution engine
// and checks every event and attribution sample for equality; it exits
// nonzero on any divergence or a damaged or truncated file, so CI can
// gate on it. corpus
// administers the content-addressed trace store (see corpus.go), and
// corrupt injects deterministic storage faults for resilience testing.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"hprefetch"
	"hprefetch/internal/harness"
	"hprefetch/internal/tracefile"
	"hprefetch/internal/workloads"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "record":
			runRecord(os.Args[2:])
			return
		case "info":
			runInfo(os.Args[2:])
			return
		case "verify":
			runVerify(os.Args[2:])
			return
		case "corpus":
			runCorpus(os.Args[2:])
			return
		case "corrupt":
			runCorrupt(os.Args[2:])
			return
		}
	}
	runReport(os.Args[1:])
}

// runReport is the original stream-inspection mode.
func runReport(args []string) {
	fs := flag.NewFlagSet("hptrace", flag.ExitOnError)
	workload := fs.String("workload", "tidb-tpcc", "workload to trace")
	instr := fs.Uint64("instructions", 4_000_000, "instructions to trace")
	replay := fs.String("replay", "", "compute the stage view from this recorded trace instead of a live engine")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	t, err := hprefetch.RunExperiment("fig1", &hprefetch.Options{
		MeasureInstr: *instr,
		Workloads:    []string{*workload},
		TracePath:    *replay,
	})
	if err != nil {
		fatal(err)
	}
	t.Fprint(os.Stdout)

	st, err := hprefetch.Simulate(*workload, hprefetch.FDIP, &hprefetch.Options{
		WarmInstr:    *instr / 4,
		MeasureInstr: *instr,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("baseline (FDIP): IPC %.3f, %.2f branch MPKI, %.2f clean L1-I MPKI over %d instructions\n",
		st.IPC, st.BranchMPKI, st.L1IMPKI, st.Instructions)
}

// runRecord captures a trace covering exactly -instructions (plus the
// lookahead tail), with no warmup prefix — callers choose their own
// warm/measure split at replay time.
func runRecord(args []string) {
	fs := flag.NewFlagSet("hptrace record", flag.ExitOnError)
	workload := fs.String("workload", "tidb-tpcc", "workload to record")
	instr := fs.Uint64("instructions", 12_000_000, "instructions to capture (cover warm+measure of later replays)")
	out := fs.String("o", "", "output path (default <workload>"+harness.TraceExt+")")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	path := *out
	if path == "" {
		path = *workload + harness.TraceExt
	}
	rc := harness.DefaultRunConfig()
	rc.WarmInstr = 0
	rc.MeasureInstr = *instr
	sum, err := harness.RecordTrace(*workload, path, rc)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("recorded %s: %d events (%d instructions, %d requests) in %d frames, %d bytes\n",
		path, sum.Events, sum.Instructions, sum.Requests, sum.Frames, sum.Bytes)
}

// runInfo summarises a trace file from its header and index.
func runInfo(args []string) {
	fs := flag.NewFlagSet("hptrace info", flag.ExitOnError)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("usage: hptrace info <trace-file>"))
	}
	sum, err := hprefetch.TraceInfo(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload:      %s (seed %d)\n", sum.Workload, sum.Seed)
	fmt.Printf("events:        %d in %d frames\n", sum.Events, sum.Frames)
	fmt.Printf("instructions:  %d\n", sum.Instructions)
	fmt.Printf("requests:      %d\n", sum.Requests)
	if sum.Instructions > 0 {
		fmt.Printf("file size:     %d bytes (%.2f bits/instruction)\n",
			sum.FileBytes, float64(sum.FileBytes*8)/float64(sum.Instructions))
	} else {
		fmt.Printf("file size:     %d bytes\n", sum.FileBytes)
	}
	switch {
	case sum.Truncated:
		fmt.Println("state:         TRUNCATED (replayable up to the last complete frame)")
	case sum.Complete:
		fmt.Println("state:         complete, indexed")
	default:
		fmt.Println("state:         unindexed")
	}
}

// runVerify prints verify's verdict on one trace file.
func runVerify(args []string) {
	fs := flag.NewFlagSet("hptrace verify", flag.ExitOnError)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("usage: hptrace verify <trace-file> (decodes the whole trace into memory, 67 B an event)"))
	}
	path := fs.Arg(0)
	events, instructions, err := verify(path)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("verified %s: %d events, %d instructions match the live engine\n", path, events, instructions)
}

// verify decodes the trace at path and replays it against a fresh
// engine built from the trace's own header, comparing every event and
// attribution sample. It returns how many events and instructions
// matched; a truncated trace fails with an error wrapping
// tracefile.ErrTruncated, a damaged one with one wrapping
// tracefile.ErrCorrupt.
func verify(path string) (events, instructions uint64, err error) {
	loaded, err := tracefile.Load(path)
	if err != nil {
		return 0, 0, err
	}
	meta := loaded.Meta()
	built, err := workloads.Build(meta.Workload)
	if err != nil {
		return 0, 0, fmt.Errorf("trace header names unknown workload %q: %w", meta.Workload, err)
	}
	if built.Workload.TraceSeed != meta.Seed {
		return 0, 0, fmt.Errorf("trace seed %d does not match workload %s's preset seed %d",
			meta.Seed, meta.Workload, built.Workload.TraceSeed)
	}
	r, eng := loaded.Replay(), built.NewEngine()
	for {
		got := r.Next()
		if got.NumInstr == 0 {
			break
		}
		want := eng.Next()
		if got != want {
			return events, r.Instructions(), fmt.Errorf("event %d diverges: trace %+v, live %+v", events, got, want)
		}
		if r.Requests() != eng.Requests() || r.CurrentType() != eng.CurrentType() ||
			r.Stage() != eng.Stage() || r.Depth() != eng.Depth() {
			return events, r.Instructions(), fmt.Errorf("attribution after event %d diverges: trace (req %d type %d stage %d depth %d), live (req %d type %d stage %d depth %d)",
				events, r.Requests(), r.CurrentType(), r.Stage(), r.Depth(),
				eng.Requests(), eng.CurrentType(), eng.Stage(), eng.Depth())
		}
		if r.CurrentRequest() != eng.CurrentRequest() || r.RequestDone() != eng.RequestDone() {
			return events, r.Instructions(), fmt.Errorf("request mark after event %d diverges: trace (req id %d done %v), live (req id %d done %v)",
				events, r.CurrentRequest(), r.RequestDone(), eng.CurrentRequest(), eng.RequestDone())
		}
		events++
	}
	if err := r.Err(); errors.Is(err, tracefile.ErrTruncated) {
		return events, r.Instructions(), fmt.Errorf("trace is truncated after %d events (%d instructions): %w", events, r.Instructions(), err)
	} else if !errors.Is(err, tracefile.ErrExhausted) {
		return events, r.Instructions(), fmt.Errorf("after %d events: %w", events, err)
	}
	return events, r.Instructions(), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hptrace:", err)
	os.Exit(1)
}
