package workloads_test

import (
	"reflect"
	"testing"
	"unsafe"

	"hprefetch/internal/isa"
	"hprefetch/internal/program"
	"hprefetch/internal/workloads"
)

// TestColdCodeUnreachable: in every workload's whole program, the
// functions a run can reach from the request loop, through direct calls
// that can execute (Prob > 0) or through any indirect call's target set,
// include no KindCold function. Cold and orphan code exists only to give
// the linker realistic sizes and layout, so a built workload may drop it.
func TestColdCodeUnreachable(t *testing.T) {
	for _, name := range workloads.AllSorted() {
		l, err := workloads.Link(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := l.Prog
		seen := reachable(p)
		reached, cold := 0, 0
		for id, ok := range seen {
			if !ok {
				continue
			}
			reached++
			if p.Funcs[id].Kind == program.KindCold {
				cold++
				if cold <= 3 {
					t.Errorf("%s: cold function %d (%s) is reachable from the entry", name, id, p.FuncName(isa.FuncID(id)))
				}
			}
		}
		if cold > 0 {
			t.Errorf("%s: %d cold functions reachable", name, cold)
		}
		t.Logf("%s: %d of %d functions reachable", name, reached, p.NumFuncs())
	}
}

// reachable marks the functions of p a run can reach from Entry:
// through direct calls with Prob > 0 and every indirect target set.
func reachable(p *program.Program) []bool {
	seen := make([]bool, p.NumFuncs())
	seen[p.Entry] = true
	stack := []isa.FuncID{p.Entry}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range p.CallsOf(id) {
			var next []isa.FuncID
			switch {
			case c.Indirect():
				next = p.TargetSets[c.Targets].Funcs
			case c.Prob > 0:
				next = []isa.FuncID{c.Callee}
			}
			for _, n := range next {
				if !seen[n] {
					seen[n] = true
					stack = append(stack, n)
				}
			}
		}
	}
	return seen
}

// TestProgramFootprint guards what a program costs to keep: a function
// record of at most 24 bytes, no pointer in a function or call record
// (so the collector never scans them), and a call array with no spare
// capacity once generation or image decoding has built it.
func TestProgramFootprint(t *testing.T) {
	if n := unsafe.Sizeof(program.Function{}); n > 24 {
		t.Errorf("program.Function is %d bytes, at most 24 allowed", n)
	}
	for _, v := range []any{program.Function{}, program.Call{}} {
		if path := pointerIn(reflect.TypeOf(v), reflect.TypeOf(v).Name()); path != "" {
			t.Errorf("%s holds a pointer", path)
		}
	}
	// gin comes from program.Generate, chain-burst from GenerateChain.
	for _, name := range []string{"gin", "chain-burst"} {
		l, err := workloads.Link(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n, c := len(l.Prog.Calls), cap(l.Prog.Calls); n != c {
			t.Errorf("%s: generated call array has len %d, cap %d", name, n, c)
		}
		q, err := l.Image.Program()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n, c := len(q.Calls), cap(q.Calls); n != c {
			t.Errorf("%s: decoded call array has len %d, cap %d", name, n, c)
		}
	}
}

// TestPrunedFootprint: a built workload's program keeps its function
// and call records in arrays with no spare capacity, so nothing holds
// the whole program's storage alive, and the largest workload keeps at
// most 15,000 of its 434,708 function records.
func TestPrunedFootprint(t *testing.T) {
	for _, name := range workloads.AllSorted() {
		b, err := workloads.Build(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := b.Loaded.Prog
		if n, c := len(p.Funcs), cap(p.Funcs); n != c {
			t.Errorf("%s: pruned function array has len %d, cap %d", name, n, c)
		}
		if n, c := len(p.Calls), cap(p.Calls); n != c {
			t.Errorf("%s: pruned call array has len %d, cap %d", name, n, c)
		}
		if p.NumFuncs() >= p.TextFuncs() {
			t.Errorf("%s: kept %d of %d function records", name, p.NumFuncs(), p.TextFuncs())
		}
		if name == "tidb-tpcc" && p.NumFuncs() > 15_000 {
			t.Errorf("%s: kept %d function records, at most 15000 allowed", name, p.NumFuncs())
		}
	}
}

// pointerIn returns the path to the first pointer-holding part of ty,
// or "" if it holds none.
func pointerIn(ty reflect.Type, path string) string {
	switch ty.Kind() {
	case reflect.Struct:
		for i := range ty.NumField() {
			f := ty.Field(i)
			if p := pointerIn(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		return pointerIn(ty.Elem(), path+"[]")
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	default:
		return path + " (" + ty.Kind().String() + ")"
	}
}
