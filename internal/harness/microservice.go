package harness

import (
	"fmt"
	"slices"

	"hprefetch/internal/microsvc"
)

// MicroserviceTable is the cloud-microservice scenario experiment: every
// scheme over the chain workload suite (depth × fan-out × arrival
// pattern), reporting throughput alongside the per-request fetch-stall
// tail (p50/p99/p99.9 cycles of front-end stall accumulated per request
// chain). Importing microsvc here also registers the chain workloads
// with the workload registry for every binary built on the harness.
func MicroserviceTable(rc RunConfig) (*Table, error) {
	presets := microsvc.Presets()
	if len(rc.Workloads) > 0 {
		// Honour an explicit restriction to chain workloads; a workload
		// list naming none of them (e.g. QuickRunConfig's paper pair)
		// falls back to the full suite.
		var sel []microsvc.Preset
		for _, p := range presets {
			if slices.Contains(rc.Workloads, p.Name) {
				sel = append(sel, p)
			}
		}
		if len(sel) > 0 {
			presets = sel
		}
	}
	t := &Table{
		ID:    "Microservice",
		Title: "Per-request fetch-stall tail across chain depth, fan-out and arrival pattern",
		Header: []string{
			"workload", "depth", "fanout", "arrival", "scheme",
			"IPC", "speedup", "requests", "stall mean", "stall p50", "stall p99", "stall p99.9",
		},
	}
	for _, p := range presets {
		base, err := Run(p.Name, SchemeFDIP, rc)
		if err != nil {
			return nil, err
		}
		for _, s := range Schemes() {
			r, err := Run(p.Name, s, rc)
			if err != nil {
				return nil, err
			}
			st := r.Stats
			t.Rows = append(t.Rows, []string{
				p.Name, fmt.Sprint(p.Depth), fmt.Sprint(p.Fanout), string(p.Arrival), string(s),
				f3(st.IPC()), spd(st.IPC()/base.Stats.IPC() - 1),
				fmt.Sprint(st.ReqCompleted),
				f1(st.ReqStallMeanCycles()),
				f1(st.ReqStallPercentileCycles(0.50)),
				f1(st.ReqStallPercentileCycles(0.99)),
				f1(st.ReqStallPercentileCycles(0.999)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"stall columns are fetch-stall cycles per completed request; open-loop arrivals, so load does not adapt to the scheme")
	return t, nil
}
