package main

import (
	"flag"
	"reflect"
	"testing"

	"hprefetch"
)

// TestFlagsCoverRunSpec: every Options field is set by some hpsim flag,
// except the fields that only mean something to a server or a fleet.
// A knob added to the spec fails here until hpsim binds it.
func TestFlagsCoverRunSpec(t *testing.T) {
	servingOnly := map[string]bool{
		"TimeoutMS": true, "MaxRetries": true, "NoCorpus": true,
		"Experiment": true, "Workload": true, "Scheme": true, "Schemes": true,
	}
	covered := map[string]bool{}
	probe := flag.NewFlagSet("hpsim", flag.ContinueOnError)
	bindFlags(probe, &hprefetch.Options{})
	probe.VisitAll(func(f *flag.Flag) {
		var sp hprefetch.Options
		fs := flag.NewFlagSet("hpsim", flag.ContinueOnError)
		bindFlags(fs, &sp)
		defaults := sp
		val := "7"
		if b, ok := f.Value.(interface{ IsBoolFlag() bool }); ok && b.IsBoolFlag() {
			val = "true"
		}
		if err := fs.Set(f.Name, val); err != nil {
			t.Fatalf("-%s %s: %v", f.Name, val, err)
		}
		got, def := reflect.ValueOf(sp), reflect.ValueOf(defaults)
		for i := 0; i < got.NumField(); i++ {
			if !reflect.DeepEqual(got.Field(i).Interface(), def.Field(i).Interface()) {
				covered[got.Type().Field(i).Name] = true
			}
		}
	})
	typ := reflect.TypeOf(hprefetch.Options{})
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !servingOnly[name] && !covered[name] {
			t.Errorf("no hpsim flag sets Options.%s", name)
		}
	}
}
