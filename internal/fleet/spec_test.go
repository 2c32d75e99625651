package fleet

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"hprefetch/internal/service"
)

// everyField returns a spec with every JSON-visible field set to a
// non-zero value, and those fields' names. A field added to RunSpec
// later is covered without editing this test.
func everyField(t *testing.T) (SweepSpec, []string) {
	t.Helper()
	var sp SweepSpec
	v := reflect.ValueOf(&sp).Elem()
	var names []string
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		if f.Tag.Get("json") == "-" {
			continue
		}
		switch {
		case fv.Kind() == reflect.String:
			fv.SetString("x-" + f.Name)
		case fv.Kind() == reflect.Bool:
			fv.SetBool(true)
		case fv.CanInt():
			fv.SetInt(int64(i + 1))
		case fv.CanUint():
			fv.SetUint(uint64(i + 1))
		case fv.Type() == reflect.TypeOf([]string(nil)):
			fv.Set(reflect.ValueOf([]string{"x-" + f.Name}))
		default:
			t.Fatalf("RunSpec.%s: no test value for %s", f.Name, f.Type)
		}
		names = append(names, f.Name)
	}
	return sp, names
}

// TestRunSpecRoundTrip: every JSON-visible RunSpec field survives the
// HTTP body decode, the journal, and fleet sub-job construction.
func TestRunSpecRoundTrip(t *testing.T) {
	full, names := everyField(t)
	check := func(via string, got SweepSpec, except ...string) {
		t.Helper()
		skip := map[string]bool{}
		for _, n := range except {
			skip[n] = true
		}
		gv, wv := reflect.ValueOf(got), reflect.ValueOf(full)
		for _, n := range names {
			if !skip[n] && !reflect.DeepEqual(gv.FieldByName(n).Interface(), wv.FieldByName(n).Interface()) {
				t.Errorf("%s dropped %s: got %v, want %v", via, n, gv.FieldByName(n), wv.FieldByName(n))
			}
		}
	}

	body, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	got, err := service.DecodeRequest(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	check("HTTP body", got)

	path := filepath.Join(t.TempDir(), "jobs.wal")
	jl, _, _, err := service.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.AppendSubmit("swp-000001", "sweep", full); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	jl, pending, _, err := service.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	if len(pending) != 1 {
		t.Fatalf("journal replayed %d jobs, want 1", len(pending))
	}
	check("journal", pending[0].Req)

	// The pair replaces the axes; everything else reaches the backend.
	sub := subJob(full, "gin", "GHB")
	check("fleet sub-job", sub, "Workload", "Scheme", "Workloads", "Schemes")
	if sub.Workload != "gin" || sub.Scheme != "GHB" || sub.Workloads != nil || sub.Schemes != nil {
		t.Errorf("sub-job pair/axes: %+v", sub)
	}
}
