package service

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sampleRecords is a representative record mix covering every op and
// every RunRequest field.
func sampleRecords() []journalRecord {
	return []journalRecord{
		{Op: opSeq, Seq: 41},
		{Op: opSubmit, ID: "job-000042", Kind: "run", Req: fullRequest()},
		{Op: opStart, ID: "job-000042", Attempt: 1},
		{Op: opSubmit, ID: "job-000043", Kind: "experiment", Req: RunRequest{
			Experiment: "fig9", Workloads: []string{"gin", "etcd"},
		}},
		{Op: opStart, ID: "job-000042", Attempt: 2},
		{Op: opAssign, ID: "job-000043", Key: "gin/FDIP", Backend: "http://127.0.0.1:19001"},
		{Op: opFinish, ID: "job-000042", State: JobDone, Digest: "fnv1a64:dead"},
		{Op: opFinish, ID: "job-000043", State: JobFailed, ErrMsg: "boom"},
	}
}

// fullRequest sets every JSON-visible RunRequest field.
func fullRequest() RunRequest {
	return RunRequest{
		Workload: "gin", Scheme: "Hierarchical", Experiment: "fig9",
		WarmInstr: 1000, MeasureInstr: 2000, Workloads: []string{"gin", "etcd"},
		Quick: true, Fault: "tag-flip:0.001:7", TimeoutMS: 5000, MaxRetries: 3,
		TracePath: "/var/traces/gin.hpt",
		Schemes:   []string{"FDIP", "Hierarchical"},
		Sample:    "10000,20000,40000,3", NoCorpus: true, PFDegree: 4, Governed: true,
	}
}

func encodeAll(t *testing.T, recs []journalRecord) []byte {
	t.Helper()
	buf := journalHeader()
	for _, rec := range recs {
		payload, err := encodeJournalPayload(rec)
		if err != nil {
			t.Fatalf("encode %+v: %v", rec, err)
		}
		buf = append(buf, frameRecord(payload)...)
	}
	return buf
}

func TestJournalRecordRoundTrip(t *testing.T) {
	recs := sampleRecords()
	data := encodeAll(t, recs)
	got, n, err := decodeJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(data) {
		t.Fatalf("decoded %d of %d bytes", n, len(data))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		a, b := recs[i], got[i]
		if a.Op != b.Op || a.ID != b.ID || a.Kind != b.Kind || a.Attempt != b.Attempt ||
			a.State != b.State || a.ErrMsg != b.ErrMsg || a.Digest != b.Digest || a.Seq != b.Seq ||
			a.Key != b.Key || a.Backend != b.Backend {
			t.Fatalf("record %d: %+v != %+v", i, a, b)
		}
		if a.Op == opSubmit {
			ae, _ := encodeJournalPayload(a)
			be, _ := encodeJournalPayload(b)
			if !bytes.Equal(ae, be) {
				t.Fatalf("record %d request drifted through the codec", i)
			}
		}
	}
}

// TestJournalTornTail proves corruption after a valid prefix never
// poisons replay: the prefix decodes, the tail is discarded.
func TestJournalTornTail(t *testing.T) {
	recs := sampleRecords()
	data := encodeAll(t, recs)

	// Truncations anywhere keep a (possibly shorter) valid prefix.
	for cut := 0; cut < len(data); cut += 7 {
		got, n, err := decodeJournal(data[:cut])
		if err != nil && cut >= journalHeaderSize {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if n > cut {
			t.Fatalf("cut=%d: decoder claims %d bytes", cut, n)
		}
		if len(got) > len(recs) {
			t.Fatalf("cut=%d: conjured records", cut)
		}
	}

	// A flipped byte mid-file stops the scan at the damaged record.
	for _, pos := range []int{journalHeaderSize + 2, len(data) / 2, len(data) - 3} {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x40
		got, _, err := decodeJournal(mut)
		if err != nil {
			t.Fatalf("pos=%d: %v", pos, err)
		}
		if len(got) >= len(recs) {
			// The flip may hit string content and still CRC-fail; only a
			// full-length decode would mean the corruption went unnoticed.
			ok := false
			for i := range got {
				a, _ := encodeJournalPayload(recs[i])
				b, _ := encodeJournalPayload(got[i])
				if !bytes.Equal(a, b) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("pos=%d: corrupt journal decoded fully and identically", pos)
			}
		}
	}

	// Bad magic is the one hard error.
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, _, err := decodeJournal(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestJournalVersionMismatch pins the upgrade failure mode: a journal
// written by another format version is rejected at startup with an
// error naming the version found, the version this build speaks, and
// the remediation — not a bare decode failure.
func TestJournalVersionMismatch(t *testing.T) {
	data := journalHeader()
	binary.LittleEndian.PutUint16(data[8:], journalVersion-1)
	_, _, err := decodeJournal(data)
	if err == nil {
		t.Fatal("old-version journal accepted")
	}
	for _, want := range []string{
		fmt.Sprintf("format v%d found", journalVersion-1),
		fmt.Sprintf("reads/writes v%d", journalVersion),
		"delete the journal file",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("version error %q missing %q", err, want)
		}
	}
	// The on-disk startup path surfaces the same story.
	path := filepath.Join(t.TempDir(), "jobs.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenJournal(path); err == nil || !strings.Contains(err.Error(), "format v") {
		t.Fatalf("OpenJournal on old-version journal: %v", err)
	}
	// Bad magic stays its own, distinct error.
	bad := journalHeader()
	bad[0] ^= 0xFF
	if _, _, err := decodeJournal(bad); err == nil || strings.Contains(err.Error(), "format v") {
		t.Fatalf("bad magic error: %v", err)
	}
}

func TestPendingFromRecords(t *testing.T) {
	pending, maxSeq := pendingFromRecords(sampleRecords())
	if len(pending) != 0 {
		t.Fatalf("all jobs finished, but %d pending: %+v", len(pending), pending)
	}
	if maxSeq != 43 {
		t.Fatalf("maxSeq %d, want 43", maxSeq)
	}

	// Drop the finish records: both jobs replay, with attempts and
	// backend assignments preserved.
	recs := sampleRecords()[:6]
	pending, maxSeq = pendingFromRecords(recs)
	if len(pending) != 2 || maxSeq != 43 {
		t.Fatalf("pending %+v maxSeq %d", pending, maxSeq)
	}
	if pending[0].ID != "job-000042" || pending[0].Attempts != 2 {
		t.Fatalf("orphaned job %+v, want attempts 2", pending[0])
	}
	if pending[1].ID != "job-000043" || pending[1].Attempts != 0 {
		t.Fatalf("queued job %+v, want attempts 0", pending[1])
	}
	if got := pending[1].Assignments["gin/FDIP"]; got != "http://127.0.0.1:19001" {
		t.Fatalf("assignment not folded into replay: %+v", pending[1].Assignments)
	}
	if pending[0].Assignments != nil {
		t.Fatalf("job without assign records grew assignments: %+v", pending[0].Assignments)
	}

	// Order independence: a finish before its submit still terminates.
	shuffled := []journalRecord{
		{Op: opFinish, ID: "job-000001", State: JobCanceled},
		{Op: opSubmit, ID: "job-000001", Kind: "run", Req: RunRequest{Workload: "gin"}},
		{Op: opSubmit, ID: "job-000002", Kind: "run", Req: RunRequest{Workload: "gin"}},
	}
	pending, maxSeq = pendingFromRecords(shuffled)
	if len(pending) != 1 || pending[0].ID != "job-000002" || maxSeq != 2 {
		t.Fatalf("shuffled fold: pending %+v maxSeq %d", pending, maxSeq)
	}
}

// TestJournalAppendReplayCompact exercises the full disk lifecycle:
// append through the group-commit path, reopen, observe pending jobs,
// and verify compaction discarded the finished history.
func TestJournalAppendReplayCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	jl, pending, maxSeq, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 || maxSeq != 0 {
		t.Fatalf("fresh journal: pending %+v maxSeq %d", pending, maxSeq)
	}
	for _, rec := range sampleRecords()[:6] { // two submits + an assign, no finishes
		if err := jl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	jl2, pending, maxSeq, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 2 || maxSeq != 43 {
		t.Fatalf("reopen: pending %+v maxSeq %d", pending, maxSeq)
	}
	if got := pending[1].Assignments["gin/FDIP"]; got != "http://127.0.0.1:19001" {
		t.Fatalf("assignment lost across reopen+compaction: %+v", pending[1].Assignments)
	}
	// Finish both; the next open must compact to an empty pending set
	// while preserving the sequence high-water mark.
	for _, id := range []string{"job-000042", "job-000043"} {
		if err := jl2.Append(journalRecord{Op: opFinish, ID: id, State: JobCanceled}); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl2.Close(); err != nil {
		t.Fatal(err)
	}

	before, _ := os.ReadFile(path)
	jl3, pending, maxSeq, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl3.Close()
	if len(pending) != 0 || maxSeq != 43 {
		t.Fatalf("compacted: pending %+v maxSeq %d", pending, maxSeq)
	}
	after, _ := os.ReadFile(path)
	if len(after) >= len(before) {
		t.Fatalf("compaction did not shrink the journal: %d -> %d bytes", len(before), len(after))
	}
	// ID reuse guard: a server against the compacted journal continues
	// from the high-water mark even though no job records remain.
	if maxSeq != 43 {
		t.Fatalf("sequence high-water lost across compaction: %d", maxSeq)
	}
}

// TestJournalTornTailOnDisk simulates a crash mid-append: a half-written
// frame at the file tail must not prevent the journal from opening, and
// the valid prefix must replay.
func TestJournalTornTailOnDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	jl, _, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Append(journalRecord{Op: opSubmit, ID: "job-000001", Kind: "run",
		Req: RunRequest{Workload: "gin", Scheme: "FDIP"}}); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	// Append garbage: a plausible length prefix with no body behind it.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := binary.LittleEndian.AppendUint32(nil, 500)
	torn = append(torn, 0xDE, 0xAD)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	jl2, pending, _, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail bricked startup: %v", err)
	}
	defer jl2.Close()
	if len(pending) != 1 || pending[0].ID != "job-000001" {
		t.Fatalf("pending after torn tail: %+v", pending)
	}
}

// FuzzJournalDecode mirrors binfmt.FuzzDecode for the journal format:
// arbitrary input must never panic, and every record the decoder accepts
// must re-encode to exactly the bytes it was decoded from (canonical
// representation — no parser differentials).
func FuzzJournalDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(journalHeader())
	data := journalHeader()
	for _, rec := range sampleRecords() {
		payload, _ := encodeJournalPayload(rec)
		data = append(data, frameRecord(payload)...)
	}
	f.Add(data)
	f.Add(data[:len(data)-3])
	mut := append([]byte(nil), data...)
	mut[journalHeaderSize+6] ^= 0x10
	f.Add(mut)
	// A lone submit with every request field set, and a copy whose JSON
	// is one byte from canonical.
	payload, _ := encodeJournalPayload(journalRecord{Op: opSubmit, ID: "job-000001", Kind: "run", Req: fullRequest()})
	f.Add(append(journalHeader(), frameRecord(payload)...))
	f.Add(append(journalHeader(), frameRecord(bytes.Replace(payload, []byte(`"quick":true`), []byte(`"quick":1`), 1))...))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, n, err := decodeJournal(data)
		if err != nil {
			return // unrecognisable header; nothing accepted
		}
		if n > len(data) {
			t.Fatalf("decoder consumed %d of %d bytes", n, len(data))
		}
		// Re-encode the accepted prefix; it must reproduce data[:n]
		// byte for byte.
		out := journalHeader()
		for _, rec := range recs {
			payload, err := encodeJournalPayload(rec)
			if err != nil {
				t.Fatalf("accepted record %+v does not re-encode: %v", rec, err)
			}
			out = append(out, frameRecord(payload)...)
		}
		if len(recs) > 0 || n >= journalHeaderSize {
			if !bytes.Equal(out, data[:n]) {
				t.Fatalf("accepted prefix is not canonical:\n got %x\nwant %x", out, data[:n])
			}
		}
		// The fold must tolerate any accepted record sequence.
		pendingFromRecords(recs)
	})
}

// TestJournalSubmitMissingField: a v7 submit record written by a build
// that lacked some request fields decodes with those fields zero and
// re-encodes to its own bytes — why fields added after v7 need no
// version bump. Non-canonical request JSON is refused.
func TestJournalSubmitMissingField(t *testing.T) {
	payload := func(spec string) []byte {
		w := &jwriter{}
		w.u8(uint8(opSubmit))
		w.str("job-000007")
		w.str("run")
		return append(w.buf, spec...)
	}
	older := payload(`{"workload":"gin","scheme":"GHB","warm_instr":1000}`)
	rec, err := decodeJournalPayload(older)
	if err != nil {
		t.Fatal(err)
	}
	if want := (RunRequest{Workload: "gin", Scheme: "GHB", WarmInstr: 1000}); !reflect.DeepEqual(rec.Req, want) {
		t.Fatalf("decoded %+v, want %+v", rec.Req, want)
	}
	if again, _ := encodeJournalPayload(rec); !bytes.Equal(again, older) {
		t.Fatalf("re-encoded %q, want %q", again, older)
	}
	for name, spec := range map[string]string{
		"unknown field":  `{"workload":"gin","no_such_knob":1}`,
		"reordered keys": `{"scheme":"GHB","workload":"gin"}`,
		"explicit zero":  `{"workload":"gin","governed":false}`,
		"trailing data":  `{"workload":"gin"} `,
		"not json":       `workload=gin`,
	} {
		if _, err := decodeJournalPayload(payload(spec)); err == nil {
			t.Errorf("%s: %s accepted", name, spec)
		}
	}
}
