package harness

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// An experiment is one table the harness regenerates, by id.
type experiment struct {
	id  string
	gen generator
	// paper marks the evaluation's own tables: the set `all` regenerates
	// (the extras run by id only).
	paper bool
}

// A generator makes an experiment's table: a declaration (decl) or a
// table written out by hand (tableFunc).
type generator interface {
	table(RunConfig) (*Table, error)
}

// tableFunc is a hand-written generator.
type tableFunc func(RunConfig) (*Table, error)

func (f tableFunc) table(rc RunConfig) (*Table, error) { return f(rc) }

// experiments lists every experiment in paper order, the extras last.
var experiments = []experiment{
	{"fig1", tableFunc(fig1StageFootprints), true},
	{"fig2a", fig2a, true},
	{"fig2b", fig2b, true},
	{"fig2c", tableFunc(fig2cEIPDistance), true},
	{"fig3", fig3, true},
	{"fig4", tableFunc(fig4TriggerSimilarity), true},
	{"fig9", fig9, true},
	{"fig10", fig10, true},
	{"fig11", fig11, true},
	{"fig12", fig12, true},
	{"fig13", fig13, true},
	{"fig14", fig14, true},
	{"fig15a", fig15a, true},
	{"fig15b", fig15b, true},
	{"fig16", tableFunc(fig16Bandwidth), true},
	{"fig17", fig17, true},
	{"table2", table2, true},
	{"table3", table3, true},
	{"table4", tableFunc(table4BundleStats), true},
	{"ablation", ablation, false},
	{"degradation", tableFunc(DegradationTable), false},
	{"microservice", tableFunc(MicroserviceTable), false},
	{"throttling", tableFunc(ThrottlingTable), false},
}

// ExperimentIDs lists valid Experiment identifiers in paper order, the
// extras (ablation, degradation, microservice, throttling) last.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// PaperExperimentIDs lists the evaluation's own figures and tables in
// paper order: the set cmd/hpsim's `all` mode regenerates.
func PaperExperimentIDs() []string {
	var ids []string
	for _, e := range experiments {
		if e.paper {
			ids = append(ids, e.id)
		}
	}
	return ids
}

// Experiment looks an experiment up by its figure/table identifier
// ("fig9", "table4", ...), for the CLI.
func Experiment(id string, rc RunConfig) (*Table, error) {
	for _, e := range experiments {
		if e.id == id {
			return e.gen.table(rc)
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q (%s)", id, strings.Join(ExperimentIDs(), ", "))
}

// Experiments runs the named experiments, with up to parallel generators
// in flight at once (parallel <= 1 runs them one at a time, in order).
// Output is deterministic regardless of scheduling: tables come back in
// ids order, each table's rows are produced by its generator's own
// serial loop, and the shared single-flight Runner guarantees concurrent
// generators that need the same (workload, scheme) run share one
// simulation rather than racing. No generator starts after one has
// failed; the tables for every id before the first failing one are
// returned alongside its error.
func Experiments(ids []string, rc RunConfig, parallel int) ([]*Table, error) {
	tables := make([]*Table, len(ids))
	errs := make([]error, len(ids))
	sem := make(chan struct{}, max(parallel, 1))
	var wg sync.WaitGroup
	var failed atomic.Bool
	for i, id := range ids {
		sem <- struct{}{}
		if failed.Load() {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if tables[i], errs[i] = Experiment(id, rc); errs[i] != nil {
				failed.Store(true)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return tables[:i], err
		}
	}
	return tables, nil
}
