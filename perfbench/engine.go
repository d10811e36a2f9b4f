package main

// The in-process workloads (fig11_grid, suite_replay) drive runner.Engine
// directly: one closed-loop caller hands it one sweep at a time.

import (
	"context"
	"fmt"
	"os"
	"time"

	"thermometer/internal/runner"
	"thermometer/internal/telemetry"
	"thermometer/internal/telemetry/span"
)

type engineWorkload struct {
	name   string
	sweeps [][]runner.Spec // one round, in order

	plain  *runner.Engine
	traced *runner.Engine // plain plus spans and metrics, for traced rounds
	reg    *telemetry.Registry

	rounds     int
	delivered  [][]runner.Result // every timed sweep's results, in order
	tracedWall time.Duration
	cacheDelta map[string]uint64 // runner cache counters over traced rounds
}

func newEngineWorkload(name string, sweeps [][]runner.Spec) *engineWorkload {
	reg := telemetry.NewRegistry()
	return &engineWorkload{
		name:       name,
		sweeps:     sweeps,
		plain:      &runner.Engine{Workers: workers()},
		traced:     &runner.Engine{Workers: workers(), Metrics: reg},
		reg:        reg,
		cacheDelta: map[string]uint64{},
	}
}

// setup is one untimed pass over every sweep: it synthesizes the traces,
// builds their access streams and hint tables, and runs every job once.
// The pass is compute in this process, so it is timed net of steal.
func (e *engineWorkload) setup() (time.Duration, error) {
	return netOfSteal(func() error {
		for _, specs := range e.sweeps {
			for _, r := range e.plain.Sweep(context.Background(), specs) {
				if r.Err != "" {
					return fmt.Errorf("%s/%s: %s", r.Spec.TraceName(), r.Spec.Policy, r.Err)
				}
			}
		}
		return nil
	})
}

var cacheCounters = []string{
	"runner_trace_cache_hits", "runner_trace_cache_misses",
	"runner_hint_cache_hits", "runner_hint_cache_misses",
}

func (e *engineWorkload) round(tr *span.Tracer) ([]sample, error) {
	eng := e.plain
	var before map[string]uint64
	if tr != nil {
		eng = e.traced
		eng.Spans = tr
		eng.PublishMetrics()
		before = e.reg.Snapshot().Counters
	}
	clock, err := readHostClock()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	out := make([]sample, 0, len(e.sweeps))
	for i, specs := range e.sweeps {
		var sp span.Active
		if tr != nil {
			id := span.Derive(e.name, fmt.Sprint(e.rounds), fmt.Sprint(i))
			sp = tr.Start(id, id, 0, "sweep")
		}
		t0 := time.Now()
		res := eng.Sweep(context.Background(), specs)
		lat := time.Since(t0)
		sp.EndDetail(specs[0].TraceName())
		e.delivered = append(e.delivered, res)
		out = append(out, sample{latency: lat, instr: instructions(res)})
	}
	// Every sweep is compute in this process, so the round's latencies
	// are scaled by the share of its ready time the host ran it.
	end, err := readHostClock()
	if err != nil {
		return nil, err
	}
	share := ranShare(clock, end)
	for i := range out {
		out[i].latency = time.Duration(float64(out[i].latency) * share)
	}
	if tr != nil {
		e.tracedWall += time.Since(start)
		eng.PublishMetrics()
		after := e.reg.Snapshot().Counters
		for _, c := range cacheCounters {
			e.cacheDelta[c] += after[c] - before[c]
		}
	}
	e.rounds++
	return out, nil
}

func instructions(res []runner.Result) uint64 {
	var n uint64
	for _, r := range res {
		if r.Outcome != nil {
			n += r.Outcome.Instructions
		}
	}
	return n
}

func (e *engineWorkload) peakRSS() (float64, error) { return peakRSSOf(os.Getpid()) }

// checkDelivered runs the per-sweep checks over every timed sweep, and the
// byte-identity check of every delivery against the first delivery of the
// same spec. badTraces lists traces the reference found wrong; their
// sweeps count as failed.
func checkDelivered(delivered [][]runner.Result, badTraces map[string]error) (failed int, problems []error) {
	first := deliveries{}
	for _, res := range delivered {
		bad := checkSweep(res)
		if bad == nil && len(res) > 0 && res[0].Outcome != nil {
			bad = badTraces[res[0].Outcome.Trace]
		}
		if bad != nil {
			failed++
			fmt.Fprintln(os.Stderr, "perfbench: failed sweep:", bad)
		}
		for _, r := range res {
			if r.Outcome == nil {
				continue
			}
			if err := first.check(r); err != nil {
				problems = append(problems, err)
			}
		}
	}
	return failed, problems
}

// firstDeliveries returns one result per distinct spec, in first-seen order.
func firstDeliveries(delivered [][]runner.Result) []runner.Result {
	seen := map[string]bool{}
	var out []runner.Result
	for _, res := range delivered {
		for _, r := range res {
			if r.Outcome != nil && !seen[r.Key] {
				seen[r.Key] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// runnerLayers derives the runner's per-layer metrics from the engine's
// own spans and cache counters over the traced rounds.
func (e *engineWorkload) runnerLayers(tr *span.Tracer, m metrics) {
	spans := tr.Spans()
	children := map[span.ID][]span.Span{}
	stage := map[string][]float64{}
	for _, s := range spans {
		switch s.Name {
		case "trace_load", "hint_load", "simulate", "aggregate", "cache":
			children[s.Parent] = append(children[s.Parent], s)
			stage[s.Name] = append(stage[s.Name], float64(s.Dur)/1e6)
		}
	}
	var overhead []float64
	var busy int64
	for _, s := range spans {
		if s.Name != "job" {
			continue
		}
		busy += s.Dur
		self := s.Dur
		for _, c := range children[s.ID] {
			if c.Start >= s.Start && c.Start+c.Dur <= s.Start+s.Dur {
				self -= c.Dur
			}
		}
		overhead = append(overhead, float64(self)/1e6)
	}
	m.set("runner.trace_load_ms", mean(stage["trace_load"]), "ms")
	m.set("runner.hint_load_ms", mean(stage["hint_load"]), "ms")
	m.set("runner.simulate_ms", mean(stage["simulate"]), "ms")
	m.set("runner.job_overhead_ms", mean(overhead), "ms")
	m.set("runner.worker_busy_pct", float64(busy)/float64(e.tracedWall.Nanoseconds()*int64(e.traced.Workers))*100, "%")
	m.set("runner.trace_cache_hit_ratio", ratio(e.cacheDelta["runner_trace_cache_hits"], e.cacheDelta["runner_trace_cache_misses"]), "ratio")
	m.set("runner.hint_cache_hit_ratio", ratio(e.cacheDelta["runner_hint_cache_hits"], e.cacheDelta["runner_hint_cache_misses"]), "ratio")
}

// ratio is hits / (hits + misses), 0 when there were no lookups.
func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func (e *engineWorkload) close() {}
