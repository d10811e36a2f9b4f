package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"

	"thermometer/internal/runner"
	"thermometer/internal/telemetry/span"
	"thermometer/internal/trace"
	"thermometer/internal/workload"
)

// Table 1 BTB geometry, used by every replay and profile in the benchmark.
const (
	btbEntries = 8192
	btbWays    = 4
)

// suitePolicies are the replay policies of one suite_replay sweep.
var suitePolicies = []string{"lru", "opt", "thermometer"}

// suiteSweep is one suite_replay sweep: one trace's three replay jobs.
func suiteSweep(suite string, index, scale int) []runner.Spec {
	specs := make([]runner.Spec, len(suitePolicies))
	for i, p := range suitePolicies {
		specs[i] = runner.Spec{Suite: suite, Index: index, Scale: scale, Mode: runner.ModeReplay, Policy: p, Hints: p == "thermometer"}
	}
	return specs
}

// referenceReplay runs the reference model over a trace for every
// suite_replay policy, with Thermometer driven by the reference's own
// recomputed temperatures.
func referenceReplay(recs []trace.Record) (map[string]refCounts, error) {
	acc := refStream(recs)
	sets := btbEntries / btbWays
	temps, opt := refTemperatures(acc, sets, btbWays)
	out := map[string]refCounts{"opt": opt}
	for _, p := range []string{"lru", "thermometer"} {
		c, err := refRun(acc, sets, btbWays, p, temps, nil)
		if err != nil {
			return nil, err
		}
		out[p] = c
	}
	return out, nil
}

// Suite make-up: suiteCBP5 CBP-5-style and suiteIPC1 IPC-1-style traces,
// 272 in all: more than four times the runner's 64-entry trace cache and
// more than its 256-entry hint cache, so every trace leaves both caches
// before it comes round again. suiteScale divides their 150K-record length.
const (
	suiteCBP5  = 238
	suiteIPC1  = 34
	suiteScale = 4
)

type suiteTrace struct {
	suite string
	index int
}

func (t suiteTrace) spec() workload.AppSpec {
	if t.suite == runner.SuiteIPC1 {
		return workload.IPC1Spec(t.index).ScaleLength(1, suiteScale)
	}
	return workload.CBP5Spec(t.index).ScaleLength(1, suiteScale)
}

// suiteReplay replays a fixed subset of the trace suites in BTB-only mode,
// in an order drawn from the seed: one sweep is one trace's three
// policies, one round is every trace.
type suiteReplay struct {
	*engineWorkload
	traces []suiteTrace // in round order
}

func newSuite(o options) *suiteReplay {
	rng := rand.New(rand.NewSource(int64(o.seed)))
	var traces []suiteTrace
	for _, i := range stratified(workload.CBP5Count, suiteCBP5, workload.CBP5Spec) {
		traces = append(traces, suiteTrace{runner.SuiteCBP5, i})
	}
	for _, i := range stratified(workload.IPC1Count, suiteIPC1, workload.IPC1Spec) {
		traces = append(traces, suiteTrace{runner.SuiteIPC1, i})
	}
	rng.Shuffle(len(traces), func(i, j int) { traces[i], traces[j] = traces[j], traces[i] })
	sweeps := make([][]runner.Spec, len(traces))
	for i, t := range traces {
		sweeps[i] = suiteSweep(t.suite, t.index, suiteScale)
	}
	return &suiteReplay{engineWorkload: newEngineWorkload("suite_replay", sweeps), traces: traces}
}

// check adds the reference check: every trace's replay outcomes equal the
// reference model's hit, miss and bypass counts for every policy.
func (s *suiteReplay) check() (int, []error) {
	first := map[string]runner.Result{}
	for _, r := range firstDeliveries(s.delivered) {
		first[r.Key] = r
	}
	bad := map[string]error{}
	var mu sync.Mutex
	forEach(len(s.traces), func(i int) {
		t := s.traces[i]
		tr := t.spec().Generate(0)
		want, err := referenceReplay(tr.Records)
		for _, sp := range s.sweeps[i] {
			if err != nil {
				break
			}
			r, ok := first[sp.Key()]
			if !ok {
				err = fmt.Errorf("%s/%s: never delivered", sp.TraceName(), sp.Policy)
				break
			}
			err = checkReference(r, want[sp.Policy])
		}
		if err != nil {
			mu.Lock()
			bad[tr.Name] = err
			mu.Unlock()
			fmt.Fprintln(os.Stderr, "perfbench: reference disagrees:", err)
		}
	})
	return checkDelivered(s.delivered, bad)
}

func (s *suiteReplay) layers(tr *span.Tracer, m metrics) error {
	s.runnerLayers(tr, m)
	var specs []layerInput
	for _, t := range s.traces[:8] {
		specs = append(specs, layerInput{t.spec(), 0})
	}
	simMetrics(firstDeliveries(s.delivered), m)
	return measureLayers(tr, specs, m)
}

// stratified picks n of a suite's count traces: the middle one of each of
// n strata of traces ordered by static-branch footprint. Sweep time grows
// steeply with the footprint (from about 6 ms to 150 ms on two cores), so
// the subset is fixed and the seed only sets the order of the sweeps;
// seeded picks within strata moved the p90 between 39 and 44 ms over five
// seeds.
func stratified(count, n int, spec func(int) workload.AppSpec) []int {
	foot := make([]int, count)
	order := make([]int, count)
	for i := range order {
		s := spec(i)
		foot[i], order[i] = s.HotBranches+s.WarmBranches+s.ColdBranches, i
	}
	sort.SliceStable(order, func(a, b int) bool { return foot[order[a]] < foot[order[b]] })
	out := make([]int, n)
	for k := range out {
		lo, hi := k*count/n, (k+1)*count/n
		out[k] = order[(lo+hi)/2]
	}
	return out
}
