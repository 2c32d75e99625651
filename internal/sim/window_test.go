package sim_test

// Window-boundary tests: the machine's lookahead window refills in
// chunks, and shrinking the chunk to FTQEntries+2 puts a refill at every
// lookahead position the cycle loop can reach. A live engine read ahead
// (sim.ReadAhead) arrives in chunks of its own, and one-event chunks put
// a chunk boundary at every position too. Nothing observable may depend
// on where the refills or the chunks fall, or on whether the engine is
// read ahead.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hprefetch/internal/fault"
	"hprefetch/internal/harness"
	"hprefetch/internal/isa"
	"hprefetch/internal/sim"
	"hprefetch/internal/tracefile"
	"hprefetch/internal/workloads"
)

// minChunk is the smallest window chunk: one event past a full FTQ.
var minChunk = sim.DefaultParams().FTQEntries + 2

// chunks are the window chunks every boundary test compares.
var chunks = []int{sim.DefaultWindowChunk, minChunk}

// windowRunConfig is the golden digest matrix's run window.
func windowRunConfig() harness.RunConfig {
	rc := harness.DefaultRunConfig()
	rc.WarmInstr = 200_000
	rc.MeasureInstr = 400_000
	return rc
}

// layouts are the ways the digest tests lay a live run's stream out:
// the window chunk, and whether and in what chunks the engine is read
// ahead. The first, the default window read directly, is the reference.
var layouts = []struct {
	name      string
	window    int
	readAhead bool
	chunk     int
}{
	{"the default window", sim.DefaultWindowChunk, false, sim.DefaultReadAheadChunk},
	{fmt.Sprintf("window chunk %d", minChunk), minChunk, false, sim.DefaultReadAheadChunk},
	{"read-ahead", sim.DefaultWindowChunk, true, sim.DefaultReadAheadChunk},
	{"read-ahead chunk 1", sim.DefaultWindowChunk, true, 1},
}

// digestLayouts runs one harness configuration in every layout and
// fails unless the stats digests agree.
func digestLayouts(t *testing.T, name, workload string, scheme harness.Scheme, rc harness.RunConfig) {
	t.Helper()
	var want string
	for i, l := range layouts {
		restoreWindow := sim.SetWindowChunk(l.window)
		restoreReadAhead := sim.SetReadAhead(l.readAhead, l.chunk)
		res, err := harness.RunUncached(workload, scheme, rc)
		restoreReadAhead()
		restoreWindow()
		if err != nil {
			t.Fatalf("%s with %s: %v", name, l.name, err)
		}
		if got := res.Stats.Digest(); i == 0 {
			want = got
		} else if got != want {
			t.Errorf("%s: digest %s with %s, %s with %s", name, got, l.name, want, layouts[0].name)
		}
	}
}

// TestWindowChunkGoldenSchemes: the golden scheme set on gin and
// chain-burst measures the same in every layout.
func TestWindowChunkGoldenSchemes(t *testing.T) {
	schemes := append(harness.Schemes(), harness.SchemePerfect, harness.SchemeGHB, harness.SchemeGHBTLB)
	for _, w := range []string{"gin", "chain-burst"} {
		for _, s := range schemes {
			digestLayouts(t, w+"/"+string(s), w, s, windowRunConfig())
		}
	}
}

// TestWindowChunkSampled: SkipFunctional sections cross refills and
// read-ahead chunks (every skip spans thousands of minChunk windows)
// without changing a sampled run's statistics.
func TestWindowChunkSampled(t *testing.T) {
	rc := windowRunConfig()
	rc.Sample = harness.SampleSpec{WarmInstr: 20_000, MeasureInstr: 30_000, SkipInstr: 60_000, Seed: 3}
	for _, w := range []string{"gin", "chain-burst"} {
		digestLayouts(t, w+"/sampled", w, harness.SchemeHier, rc)
	}
}

// TestWindowChunkTagFlip: tag-flip fault injection measures the same in
// every layout.
func TestWindowChunkTagFlip(t *testing.T) {
	rc := windowRunConfig()
	rc.Fault = fault.Config{Class: fault.ClassTagFlip, Rate: 0.01, Seed: 7}
	for _, w := range []string{"gin", "chain-burst"} {
		digestLayouts(t, w+"/tag-flip", w, harness.SchemeHier, rc)
	}
}

// keepSource passes a live engine's fills through and keeps a copy of
// every event it delivered.
type keepSource struct {
	workloads.Engine
	seen []isa.BlockEvent
}

func (k *keepSource) Fill(ev []isa.BlockEvent, req []uint64, done []bool, reqs []uint64) int {
	n := k.Engine.Fill(ev, req, done, reqs)
	k.seen = append(k.seen, ev[:n]...)
	return n
}

// nopPF is a prefetcher that only observes, so fetch reaches the tag-flip
// fault point.
type nopPF struct{}

func (nopPF) Name() string                   { return "nop" }
func (nopPF) OnRetire(*isa.BlockEvent)       {}
func (nopPF) OnResteer()                     {}
func (nopPF) Release()                       {}
func (nopPF) OnDemandMiss(isa.Block, uint64) {}
func (nopPF) StorageBits() int               { return 0 }

// flipAll runs src under a fault injector that flips the tag of every
// retired event and returns the machine.
func flipAll(t *testing.T, src sim.EventSource) *sim.Machine {
	t.Helper()
	m, err := sim.New(sim.DefaultParams(), src, nopPF{})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(fault.Config{Class: fault.ClassTagFlip, Rate: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaults(inj)
	if err := m.Run(300_000); err != nil {
		t.Fatal(err)
	}
	if m.Stats().FaultTagFlips == 0 {
		t.Fatal("no tag flipped")
	}
	return m
}

// TestTagFlipNeverTouchesWindow: a flip lands on the fetch stage's
// scratch copy only. Whether the window is the machine's own buffer
// (live, at either chunk size) or a decoded trace shared by every
// replay, it keeps the stream exactly as the source delivered it.
func TestTagFlipNeverTouchesWindow(t *testing.T) {
	built, err := workloads.Build("gin")
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range chunks {
		restore := sim.SetWindowChunk(chunk)
		src := &keepSource{Engine: built.NewEngine()}
		win := flipAll(t, src).Window()
		restore()
		want := src.seen[len(src.seen)-len(win):]
		for i := range win {
			if win[i] != want[i] {
				t.Fatalf("chunk %d: window event %d is %+v, the source delivered %+v", chunk, i, win[i], want[i])
			}
		}
	}

	path := filepath.Join(t.TempDir(), "gin.hpt")
	meta := tracefile.Meta{Workload: "gin", Seed: built.Workload.TraceSeed, TargetInstructions: 400_000}
	if _, err := tracefile.Record(path, built.NewEngine(), meta, 400_000, tracefile.TailEvents, tracefile.Options{}); err != nil {
		t.Fatal(err)
	}
	loaded, err := tracefile.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	flipAll(t, loaded.Replay())
	got, fresh := loaded.Replay(), built.NewEngine()
	for i := 0; ; i++ {
		ev := got.Next()
		if ev.NumInstr == 0 {
			break
		}
		if want := fresh.Next(); ev != want {
			t.Fatalf("decoded trace event %d is %+v after a faulted replay, recorded %+v", i, ev, want)
		}
	}
}

// tornTrace records a gin trace, cuts off its last two fifths and
// returns the path with the prefix of the error a machine reading it to
// its end must report: the instructions of the intact prefix.
func tornTrace(t *testing.T) (path, prefix string) {
	t.Helper()
	built, err := workloads.Build("gin")
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "gin.hpt")
	meta := tracefile.Meta{Workload: "gin", Seed: built.Workload.TraceSeed, TargetInstructions: 300_000}
	if _, err := tracefile.Record(path, built.NewEngine(), meta, 300_000, tracefile.TailEvents, tracefile.Options{FrameEvents: 256}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)*3/5], 0o644); err != nil {
		t.Fatal(err)
	}

	// The intact prefix, taken whole.
	loaded, err := tracefile.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	r := loaded.Replay()
	r.Batch()
	return path, fmt.Sprintf("sim: event stream ended after %d instructions: ", r.Instructions())
}

// errSource is an event source that can say why its stream ended.
type errSource interface {
	sim.EventSource
	Err() error
}

// fillOnly hides a decoded trace's Batch, so the machine fills its own
// window from it as it does from a live engine.
type fillOnly struct{ errSource }

// TestWindowChunkTruncatedStream: a torn trace filled into the
// machine's own window fails at both chunk sizes with the same error,
// which names the instructions of the intact prefix and wraps
// ErrTruncated.
func TestWindowChunkTruncatedStream(t *testing.T) {
	path, prefix := tornTrace(t)
	var msgs [2]string
	for i, chunk := range chunks {
		restore := sim.SetWindowChunk(chunk)
		loaded, err := tracefile.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.New(sim.DefaultParams(), fillOnly{loaded.Replay()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = m.Run(1_000_000)
		restore()
		if !errors.Is(err, tracefile.ErrTruncated) || !strings.HasPrefix(err.Error(), prefix) {
			t.Fatalf("chunk %d: Run error %v, want %q... wrapping ErrTruncated", chunk, err, prefix)
		}
		msgs[i] = err.Error()
	}
	if msgs[0] != msgs[1] {
		t.Errorf("errors differ by chunk:\n  default: %s\n  chunk %d: %s", msgs[0], minChunk, msgs[1])
	}
}

// TestWindowChunkTee: a teed recording ends where the machine's pulled
// stream ends, not where its window filled to, so the file is
// byte-identical at both chunk sizes.
func TestWindowChunkTee(t *testing.T) {
	for _, w := range []string{"gin", "chain-burst"} {
		var files [2][]byte
		for i, chunk := range chunks {
			restore := sim.SetWindowChunk(chunk)
			rc := windowRunConfig()
			rc.RecordPath = filepath.Join(t.TempDir(), w+".hpt")
			_, err := harness.RunUncached(w, harness.SchemeFDIP, rc)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if files[i], err = os.ReadFile(rc.RecordPath); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Errorf("%s: teed trace differs by chunk (%d bytes at the default, %d at chunk %d)",
				w, len(files[0]), len(files[1]), minChunk)
		}
	}
}
