package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"

	"thermometer/internal/profile"
	"thermometer/internal/runner"
	"thermometer/internal/telemetry/span"
	"thermometer/internal/workload"
)

// fig11Scale divides the 400K-record application traces. A full-length
// sweep takes about 0.5 s on two cores, too long for the hundred sweeps a
// run must time; at half length a sweep takes about 0.25 s and
// Thermometer keeps most of its full-length gain over LRU.
const fig11Scale = 2

// fig11Policies are the bars of one Fig 11 cluster; Thermometer runs with
// its profiled hints.
var fig11Policies = []string{"lru", "srrip", "ghrp", "hawkeye", "opt", "thermometer"}

// fig11 is the 13-application timing grid: one sweep is one app's six
// policies, one round is all 13 apps.
type fig11 struct {
	*engineWorkload
	apps []appInput // in round order
}

// appInput is one application trace: an app and its input set.
type appInput struct {
	name  string
	input int
}

// newFig11 draws the round order from the seed. Every app runs its
// training input (input set 0), as Fig 11 does, so every seed does the
// same work and runs differ only by the host's noise; with seeded input
// sets the work of a round, and with it the sweep p90, changed with the
// seed.
func newFig11(o options) *fig11 {
	rng := rand.New(rand.NewSource(int64(o.seed)))
	names := workload.AppNames()
	var apps []appInput
	var sweeps [][]runner.Spec
	for _, i := range rng.Perm(len(names)) {
		a := appInput{name: names[i]}
		apps = append(apps, a)
		specs := make([]runner.Spec, len(fig11Policies))
		for j, p := range fig11Policies {
			specs[j] = runner.Spec{App: a.name, Input: a.input, Scale: fig11Scale, Policy: p, Hints: p == "thermometer"}
		}
		sweeps = append(sweeps, specs)
	}
	return &fig11{engineWorkload: newEngineWorkload("fig11_grid", sweeps), apps: apps}
}

// check adds the reference check of the hint tables: for every app trace,
// the table profile.ProfileTrace builds equals the reference's recomputed
// temperatures.
func (f *fig11) check() (int, []error) {
	bad := map[string]error{}
	var mu sync.Mutex
	forEach(len(f.apps), func(i int) {
		a := f.apps[i]
		spec, _ := workload.App(a.name)
		tr := spec.ScaleLength(1, fig11Scale).Generate(a.input)
		ht, _, err := profile.ProfileTrace(tr, btbEntries, btbWays, profile.DefaultConfig())
		if err == nil {
			temps, _ := refTemperatures(refStream(tr.Records), btbEntries/btbWays, btbWays)
			err = checkHints(tr.Name, ht, temps)
		}
		if err != nil {
			mu.Lock()
			bad[tr.Name] = err
			mu.Unlock()
			fmt.Fprintln(os.Stderr, "perfbench: reference disagrees:", err)
		}
	})
	return checkDelivered(f.delivered, bad)
}

func (f *fig11) layers(tr *span.Tracer, m metrics) error {
	f.runnerLayers(tr, m)
	var specs []layerInput
	for _, a := range f.apps[:3] {
		spec, _ := workload.App(a.name)
		specs = append(specs, layerInput{spec.ScaleLength(1, fig11Scale), a.input})
	}
	simMetrics(firstDeliveries(f.delivered), m)
	return measureLayers(tr, specs, m)
}

// forEach runs fn(0..n-1) on one goroutine per core and waits for all.
func forEach(n int, fn func(int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
