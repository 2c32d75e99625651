package corpus

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"hprefetch/internal/fault"
	"hprefetch/internal/tracefile"
	"hprefetch/internal/workloads"
)

// recordTrace writes a small sealed trace for workload and returns its
// path. Small frames keep multi-frame structure cheap (the storage
// fault classes need at least two frames to have anything to damage).
func recordTrace(t *testing.T, dir, workload string, instr uint64) string {
	t.Helper()
	built, err := workloads.Build(workload)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, workload+TraceExt)
	meta := tracefile.Meta{Workload: workload, Seed: built.Workload.TraceSeed, TargetInstructions: instr}
	if _, err := tracefile.Record(path, built.NewEngine(), meta, instr, 64, tracefile.Options{FrameEvents: 256}); err != nil {
		t.Fatal(err)
	}
	return path
}

// cleanTraceBytes memoises one recorded trace per workload across tests.
var (
	traceOnce  sync.Mutex
	traceBytes = map[string][]byte{}
)

func traceFixture(t *testing.T, workload string, instr uint64) []byte {
	t.Helper()
	key := workload
	traceOnce.Lock()
	defer traceOnce.Unlock()
	if b, ok := traceBytes[key]; ok {
		return b
	}
	path := recordTrace(t, t.TempDir(), workload, instr)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	traceBytes[key] = b
	return b
}

func writeFixture(t *testing.T, workload string, instr uint64) string {
	t.Helper()
	b := traceFixture(t, workload, instr)
	path := filepath.Join(t.TempDir(), workload+TraceExt)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestIngestDedupAndResolve(t *testing.T) {
	store, err := Open(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	path := writeFixture(t, "gin", 30_000)

	e, added, err := store.Ingest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !added {
		t.Fatal("first ingest reported dedup")
	}
	if e.Workload != "gin" || e.Instructions == 0 || e.Frames < 2 || len(e.FrameCRCs) != e.Frames {
		t.Fatalf("implausible entry: %+v", e)
	}
	fp, err := tracefile.HeaderFingerprint(path)
	if err != nil {
		t.Fatal(err)
	}
	if e.Key != Key(fp) {
		t.Fatalf("entry key %q, want content address %q", e.Key, Key(fp))
	}
	if _, err := os.Stat(store.ObjectPath(e.Key)); err != nil {
		t.Fatalf("object not published: %v", err)
	}

	// Re-ingesting identical bytes is a no-op returning the same entry.
	e2, added, err := store.Ingest(path)
	if err != nil {
		t.Fatal(err)
	}
	if added || e2.Key != e.Key || e2.FileCRC != e.FileCRC {
		t.Fatalf("re-ingest not a dedup no-op: added=%v %+v", added, e2)
	}

	if got, ok := store.Resolve("gin", e.TargetInstructions); !ok || got.Key != e.Key {
		t.Fatalf("Resolve(gin, %d) = %+v, %v", e.TargetInstructions, got, ok)
	}
	if _, ok := store.Resolve("gin", e.TargetInstructions+1); ok {
		t.Fatal("Resolve found an object that does not cover the window")
	}
	if _, ok := store.Resolve("echo", 0); ok {
		t.Fatal("Resolve crossed workloads")
	}
	if err := store.Verify(e); err != nil {
		t.Fatalf("Verify(clean): %v", err)
	}
}

func TestIngestRejectsCorrupt(t *testing.T) {
	store, err := Open(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	path := writeFixture(t, "gin", 30_000)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Ingest(path); !errors.Is(err, tracefile.ErrCorrupt) {
		t.Fatalf("ingesting a flipped-byte trace: err=%v, want ErrCorrupt", err)
	}
	entries, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("corrupt input became addressable: %+v", entries)
	}
}

// TestScrubQuarantinesEveryStorageClass damages a published object with
// each deterministic storage fault class in turn and requires the
// scrubber to catch 100% of them.
func TestScrubQuarantinesEveryStorageClass(t *testing.T) {
	clean := traceFixture(t, "gin", 30_000)
	for _, class := range fault.StorageClasses() {
		t.Run(string(class), func(t *testing.T) {
			store, err := Open(filepath.Join(t.TempDir(), "corpus"))
			if err != nil {
				t.Fatal(err)
			}
			path := writeFixture(t, "gin", 30_000)
			e, _, err := store.Ingest(path)
			if err != nil {
				t.Fatal(err)
			}

			in, err := fault.New(fault.Config{Class: class, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			damaged, err := in.PerturbTrace(append([]byte(nil), clean...))
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(damaged, clean) {
				t.Fatalf("%s left the trace untouched", class)
			}
			if err := os.WriteFile(store.ObjectPath(e.Key), damaged, 0o644); err != nil {
				t.Fatal(err)
			}

			rep, err := store.Scrub(4)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Scanned != 1 || rep.OK != 0 || rep.Quarantined != 1 {
				t.Fatalf("scrub report %+v, want 1 scanned, 1 quarantined", rep)
			}
			if len(rep.Failures) != 1 || rep.Failures[0].Key != e.Key {
				t.Fatalf("scrub failures %+v, want key %s", rep.Failures, e.Key)
			}
			if entries, _ := store.List(); len(entries) != 0 {
				t.Fatalf("quarantined object still listed: %+v", entries)
			}
			if _, ok := store.Resolve("gin", 0); ok {
				t.Fatal("quarantined object still resolvable")
			}

			// Healing: re-ingesting the clean bytes restores the object at
			// the identical content address.
			if err := os.WriteFile(path, clean, 0o644); err != nil {
				t.Fatal(err)
			}
			e2, added, err := store.Ingest(path)
			if err != nil {
				t.Fatal(err)
			}
			if !added || e2.Key != e.Key {
				t.Fatalf("re-ingest after quarantine: added=%v key=%s, want fresh publish at %s", added, e2.Key, e.Key)
			}
		})
	}
}

func TestQuarantineIsIdempotent(t *testing.T) {
	store, err := Open(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	path := writeFixture(t, "gin", 30_000)
	e, _, err := store.Ingest(path)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := store.QuarantineKey(e.Key, "test damage")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dst); err != nil {
		t.Fatalf("quarantined object missing: %v", err)
	}
	reason, err := os.ReadFile(strings.TrimSuffix(dst, TraceExt) + ".reason")
	if err != nil || !strings.Contains(string(reason), "test damage") {
		t.Fatalf("reason file: %q, %v", reason, err)
	}
	// Second quarantine of a gone object is a no-op, not an error.
	if _, err := store.QuarantineKey(e.Key, "again"); err != nil {
		t.Fatalf("re-quarantine: %v", err)
	}
}

func TestGCSweepsIngestLeftovers(t *testing.T) {
	root := filepath.Join(t.TempDir(), "corpus")
	store, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	path := writeFixture(t, "gin", 30_000)
	e, _, err := store.Ingest(path)
	if err != nil {
		t.Fatal(err)
	}
	// Manufacture each leftover class: an abandoned staging file, an
	// object whose manifest never landed, and a manifest whose object
	// was removed mid-quarantine.
	if err := os.WriteFile(filepath.Join(root, "tmp", "stale.hpt.123"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "objects", "9999-deadbeef"+TraceExt), []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "objects", "8888-deadbeef.json"), []byte(`{"key":"8888-deadbeef"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := store.GC()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TempFiles != 1 || rep.OrphanObjects != 1 || rep.OrphanManifests != 1 {
		t.Fatalf("GC report %+v, want 1/1/1", rep)
	}
	// The published pair survives.
	if got, ok := store.Resolve("gin", 0); !ok || got.Key != e.Key {
		t.Fatalf("GC removed a live object: %+v, %v", got, ok)
	}
}

// TestIngestCrashHelper is the subprocess body for
// TestIngestCrashNoPartialObject: it arms the between-publishes hook to
// SIGKILL the process — object installed, manifest not yet — and runs
// one ingest. It is skipped unless launched by the parent test.
func TestIngestCrashHelper(t *testing.T) {
	dir := os.Getenv("HPCORPUS_CRASH_DIR")
	if dir == "" {
		t.Skip("subprocess helper; driven by TestIngestCrashNoPartialObject")
	}
	testHookBetweenPublishes = func() {
		syscall.Kill(os.Getpid(), syscall.SIGKILL) //nolint:errcheck
		// Unreachable: the kill is synchronous for our own pid.
		select {}
	}
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.Ingest(os.Getenv("HPCORPUS_CRASH_TRACE")) //nolint:errcheck
	t.Fatal("ingest survived the SIGKILL hook")
}

// TestIngestCrashNoPartialObject kills a real process between the
// object rename and the manifest rename — the widest window a crash can
// hit — and requires the store to stay consistent: nothing resolvable,
// the orphan swept by GC, and a re-ingest completing the publish.
func TestIngestCrashNoPartialObject(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "corpus")
	trace := writeFixture(t, "gin", 30_000)

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=TestIngestCrashHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "HPCORPUS_CRASH_DIR="+dir, "HPCORPUS_CRASH_TRACE="+trace)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if err == nil || !errors.As(err, &ee) {
		t.Fatalf("helper was not killed (err=%v):\n%s", err, out)
	}
	if status, ok := ee.Sys().(syscall.WaitStatus); !ok || !status.Signaled() || status.Signal() != syscall.SIGKILL {
		t.Fatalf("helper exited %v, want SIGKILL:\n%s", ee, out)
	}

	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The half-published object must be invisible to every reader.
	if entries, err := store.List(); err != nil || len(entries) != 0 {
		t.Fatalf("partial object visible after crash: %+v, %v", entries, err)
	}
	if _, ok := store.Resolve("gin", 0); ok {
		t.Fatal("partial object resolvable after crash")
	}
	// GC sweeps exactly the orphan the crash left.
	rep, err := store.GC()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OrphanObjects != 1 {
		t.Fatalf("GC report %+v, want 1 orphan object", rep)
	}
	// The interrupted publish completes idempotently.
	e, added, err := store.Ingest(trace)
	if err != nil || !added {
		t.Fatalf("re-ingest after crash: added=%v err=%v", added, err)
	}
	if err := store.Verify(e); err != nil {
		t.Fatalf("re-ingested object fails verification: %v", err)
	}
}

// FuzzCorpusIngest holds the store's two safety properties under
// arbitrary input bytes: an accepted trace verifies cleanly and
// re-ingests as a dedup no-op; a rejected one leaves no trace of
// itself in the store.
func FuzzCorpusIngest(f *testing.F) {
	clean := func() []byte {
		built, err := workloads.Build("gin")
		if err != nil {
			f.Fatal(err)
		}
		path := filepath.Join(f.TempDir(), "gin"+TraceExt)
		meta := tracefile.Meta{Workload: "gin", Seed: built.Workload.TraceSeed, TargetInstructions: 30_000}
		if _, err := tracefile.Record(path, built.NewEngine(), meta, 30_000, 64, tracefile.Options{FrameEvents: 256}); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}()
	f.Add(clean)
	f.Add(clean[:len(clean)/2])
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("not a trace"))

	f.Fuzz(func(t *testing.T, data []byte) {
		root := filepath.Join(t.TempDir(), "corpus")
		store, err := Open(root)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "in"+TraceExt)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, added, err := store.Ingest(path)
		if err != nil {
			// Rejected: nothing may have become addressable.
			if entries, lerr := store.List(); lerr != nil || len(entries) != 0 {
				t.Fatalf("rejected input left state: %+v, %v", entries, lerr)
			}
			return
		}
		if !added {
			t.Fatal("first ingest into an empty store reported dedup")
		}
		if verr := store.Verify(e); verr != nil {
			t.Fatalf("accepted object fails verification: %v", verr)
		}
		e2, added2, err := store.Ingest(path)
		if err != nil || added2 || e2.Key != e.Key {
			t.Fatalf("re-ingest not a no-op: %+v added=%v err=%v", e2, added2, err)
		}
	})
}
