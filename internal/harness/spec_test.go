package harness

import (
	"reflect"
	"testing"
)

// bump gives a leaf value a different value of its type, reporting
// false for kinds it does not know.
func bump(v reflect.Value) bool {
	switch {
	case v.Kind() == reflect.Bool:
		v.SetBool(!v.Bool())
	case v.CanInt():
		v.SetInt(v.Int() + 1)
	case v.CanUint():
		v.SetUint(v.Uint() + 1)
	case v.CanFloat():
		v.SetFloat(v.Float() + 0.5)
	case v.Kind() == reflect.String:
		v.SetString(v.String() + "x")
	case v.Type() == reflect.TypeOf([]string(nil)):
		v.Set(reflect.Append(v, reflect.ValueOf("x")))
	default:
		return false
	}
	return true
}

// TestRunSpecFieldsChangeMemoKey: every RunSpec field that shapes a run
// changes the memo key of the config it resolves to, and the fields
// that only select or schedule runs do not. A field added later is
// walked too; it fails here until it reaches the key or is listed.
func TestRunSpecFieldsChangeMemoKey(t *testing.T) {
	// Valid non-zero values for the fields Config validates; every other
	// field gets bump's value.
	valid := map[string]any{
		"Workload":   "gin",
		"Scheme":     "GHB",
		"Experiment": "fig9",
		"Workloads":  []string{"gin"},
		"Schemes":    []string{"GHB"},
		"Fault":      "tag-flip:0.5",
		"Sample":     "10000,20000,40000",
		"TracePath":  t.TempDir(),
	}
	notInKey := map[string]bool{
		"Experiment": true, "Workloads": true, "Schemes": true,
		"TimeoutMS": true, "MaxRetries": true, "Parallel": true,
	}
	// A corpus directory in the base gives NoCorpus something to drop.
	base := RunSpec{CorpusDir: t.TempDir()}
	key := func(sp RunSpec) string {
		t.Helper()
		rc, err := sp.Config()
		if err != nil {
			t.Fatalf("%+v: %v", sp, err)
		}
		return rc.key(sp.Workload, Scheme(sp.Scheme))
	}
	k0 := key(base)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		sp := base
		fv := reflect.ValueOf(&sp).Elem().Field(i)
		if v, ok := valid[name]; ok {
			fv.Set(reflect.ValueOf(v))
		} else if !bump(fv) {
			t.Fatalf("RunSpec.%s: no test value for %s", name, fv.Type())
		}
		if changed := key(sp) != k0; changed == notInKey[name] {
			t.Errorf("RunSpec.%s: memo key changed = %v, want %v", name, changed, !notInKey[name])
		}
	}
}

// TestRunConfigFieldsChangeMemoKey walks every leaf of RunConfig except
// Ctx and Workloads, nested structs and the HierConfig pointer
// included, and requires each to change the memo key.
func TestRunConfigFieldsChangeMemoKey(t *testing.T) {
	rc := DefaultRunConfig()
	key := func() string { return rc.key("gin", SchemeHier) }
	var walk func(v reflect.Value, name string)
	walk = func(v reflect.Value, name string) {
		before := key()
		switch {
		case v.Kind() == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), name+"."+v.Type().Field(i).Name)
			}
			return
		case v.Kind() == reflect.Pointer && v.IsNil():
			v.Set(reflect.New(v.Type().Elem()))
			if key() == before {
				t.Errorf("%s: setting it leaves the memo key unchanged", name)
			}
			walk(v.Elem(), name)
			v.Set(reflect.Zero(v.Type()))
			return
		}
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		if !bump(v) {
			t.Fatalf("%s: no test value for %s", name, v.Type())
		}
		if key() == before {
			t.Errorf("%s: changing it leaves the memo key unchanged", name)
		}
		v.Set(old)
	}
	rv := reflect.ValueOf(&rc).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if name := rv.Type().Field(i).Name; name != "Ctx" && name != "Workloads" {
			walk(rv.Field(i), name)
		}
	}
}
