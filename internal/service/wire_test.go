package service

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// fillNonZero sets every exported field reachable from v to a non-zero
// value: pointers are allocated, slices get one element, and structs
// are filled field by field.
func fillNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillNonZero(v.Field(i))
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(v.Index(0))
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	}
}

// wireKeys marshals v and returns every JSON object key it produces,
// sorted, with nested keys as "parent.child" ("[]" marks an array).
func wireKeys(t *testing.T, v any) []string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var tree any
	if err := json.Unmarshal(data, &tree); err != nil {
		t.Fatal(err)
	}
	var keys []string
	var walk func(prefix string, n any)
	walk = func(prefix string, n any) {
		switch n := n.(type) {
		case map[string]any:
			for k, c := range n {
				keys = append(keys, prefix+k)
				walk(prefix+k+".", c)
			}
		case []any:
			for _, c := range n {
				walk(strings.TrimSuffix(prefix, ".")+"[].", c)
			}
		}
	}
	walk("", tree)
	slices.Sort(keys)
	return slices.Compact(keys)
}

// TestRunResultWireKeys pins the JSON keys of a fully populated run
// result and experiment table: clients of hpserved and the fleet decode
// these names, so a renamed Go field must not rename a key, and a new
// key is added here on purpose.
func TestRunResultWireKeys(t *testing.T) {
	var rr RunResult
	fillNonZero(reflect.ValueOf(&rr).Elem())
	wantRun := []string{
		"corpus_healed", "coverage_l1", "coverage_l2", "governor",
		"governor.holds", "governor.intervals", "governor.level",
		"governor.resyncs", "governor.step_downs", "governor.step_ups",
		"governor.transitions", "governor.transitions[].from",
		"governor.transitions[].interval", "governor.transitions[].to",
		"instructions", "ipc", "l1i_mpki", "late_fraction",
		"avg_prefetch_distance", "branch_mpki", "prefetch_accuracy",
		"cycles", "tag_drops", "bundle_rejects",
		"sample_detailed_frac", "sample_intervals", "sample_ipc_mean",
		"sample_ipc_stderr", "scheme", "speedup_over_fdip", "stats_digest",
		"tlb_dropped", "tlb_miss_fraction", "trace_source", "workload",
	}
	slices.Sort(wantRun)
	if got := wireKeys(t, &rr); !slices.Equal(got, wantRun) {
		t.Errorf("run result keys:\n  got  %q\n  want %q", got, wantRun)
	}

	var tr TableResult
	fillNonZero(reflect.ValueOf(&tr).Elem())
	wantTable := []string{"header", "id", "notes", "rows", "text", "title"}
	if got := wireKeys(t, &tr); !slices.Equal(got, wantTable) {
		t.Errorf("table result keys:\n  got  %q\n  want %q", got, wantTable)
	}
}
