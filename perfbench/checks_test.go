package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"thermometer/internal/profile"
	"thermometer/internal/runner"
)

// goodSweep is a consistent replay sweep of one trace.
func goodSweep() []runner.Result {
	var out []runner.Result
	for _, p := range suitePolicies {
		s := runner.Spec{Suite: runner.SuiteCBP5, Index: 1, Mode: runner.ModeReplay, Policy: p, Hints: p == "thermometer"}
		n, _ := s.Normalized()
		misses := map[string]uint64{"lru": 40, "opt": 30, "thermometer": 35}[p]
		out = append(out, runner.Result{Spec: n, Key: n.Key(), Outcome: &runner.Outcome{
			Trace: "cbp5_001", Instructions: 1000, Accesses: 100, Hits: 100 - misses, Misses: misses, Bypasses: 5,
		}})
	}
	return out
}

func clone(rs []runner.Result) []runner.Result {
	out := make([]runner.Result, len(rs))
	for i, r := range rs {
		o := *r.Outcome
		r.Outcome = &o
		out[i] = r
	}
	return out
}

// Every check accepts the consistent sweep and rejects each deliberately
// wrong variant of it.
func TestCheckSweepRejectsWrongOutcomes(t *testing.T) {
	if err := checkSweep(goodSweep()); err != nil {
		t.Fatalf("consistent sweep rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func([]runner.Result)
		want   string
	}{
		{"hits+misses != accesses", func(rs []runner.Result) { rs[0].Outcome.Hits++ }, "!= accesses"},
		{"more bypasses than misses", func(rs []runner.Result) { rs[1].Outcome.Bypasses = 31 }, "bypasses"},
		{"IPC above the fetch width", func(rs []runner.Result) { rs[2].Outcome.IPC = 6.01 }, "fetch width"},
		{"instructions differ across policies", func(rs []runner.Result) { rs[2].Outcome.Instructions++ }, "instructions"},
		{"accesses differ across policies", func(rs []runner.Result) {
			rs[1].Outcome.Accesses++
			rs[1].Outcome.Hits++
		}, "accesses"},
		{"a policy beats OPT", func(rs []runner.Result) {
			rs[0].Outcome.Misses, rs[0].Outcome.Hits = 29, 71
		}, "OPT misses"},
		{"failed job", func(rs []runner.Result) { rs[0].Err, rs[0].Outcome = "job panicked", nil }, "job failed"},
		{"two traces in one sweep", func(rs []runner.Result) { rs[1].Outcome.Trace = "cbp5_002" }, "mixes traces"},
	}
	for _, tc := range cases {
		rs := clone(goodSweep())
		tc.mutate(rs)
		err := checkSweep(rs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestCheckReferenceRejectsMismatch(t *testing.T) {
	r := goodSweep()[2]
	want := refCounts{Accesses: 100, Hits: 65, Misses: 35, Bypasses: 5}
	if err := checkReference(r, want); err != nil {
		t.Fatalf("matching counts rejected: %v", err)
	}
	for _, bad := range []refCounts{
		{Accesses: 100, Hits: 66, Misses: 34, Bypasses: 5},
		{Accesses: 100, Hits: 65, Misses: 35, Bypasses: 4},
		{Accesses: 101, Hits: 66, Misses: 35, Bypasses: 5},
	} {
		if err := checkReference(r, bad); err == nil {
			t.Errorf("reference %+v accepted for program %+v", bad, *r.Outcome)
		}
	}
}

func TestCheckHintsRejectsMismatch(t *testing.T) {
	ht := &profile.HintTable{Config: profile.DefaultConfig(), Hints: map[uint64]uint8{1: 0, 2: 1, 3: 2}}
	if err := checkHints("t", ht, map[uint64]uint8{1: 0, 2: 1, 3: 2}); err != nil {
		t.Fatalf("equal tables rejected: %v", err)
	}
	for _, bad := range []map[uint64]uint8{
		{1: 0, 2: 2, 3: 2},       // one bin wrong
		{1: 0, 2: 1},             // a branch missing from the reference
		{1: 0, 2: 1, 4: 2},       // a different branch
		{1: 0, 2: 1, 3: 2, 4: 0}, // a branch missing from the table
	} {
		if err := checkHints("t", ht, bad); err == nil {
			t.Errorf("reference %v accepted for table %v", bad, ht.Hints)
		}
	}
}

// A later delivery must repeat the first byte for byte; only the cache
// flag may differ.
func TestDeliveriesRejectChangedResult(t *testing.T) {
	d := deliveries{}
	first := goodSweep()[0]
	if err := d.check(first); err != nil {
		t.Fatal(err)
	}
	again := clone([]runner.Result{first})[0]
	again.Cached = true
	if err := d.check(again); err != nil {
		t.Errorf("cached repeat rejected: %v", err)
	}
	changed := clone([]runner.Result{first})[0]
	changed.Outcome.MPKI += 1e-9
	if err := d.check(changed); err == nil {
		t.Error("changed repeat accepted")
	}
}

func TestCheckSameResultRejectsDifference(t *testing.T) {
	local := goodSweep()[1]
	fleet := clone([]runner.Result{local})[0]
	fleet.Cached = true
	if err := checkSameResult(fleet, local); err != nil {
		t.Errorf("identical outcome served from cache rejected: %v", err)
	}
	fleet.Outcome.Bypasses++
	if err := checkSameResult(fleet, local); err == nil {
		t.Error("different outcome accepted")
	}
}

// Reference-disagreeing traces and failed checks count their sweeps as
// failed; a changed redelivery is a problem.
func TestCheckDeliveredCounts(t *testing.T) {
	good, bad := goodSweep(), clone(goodSweep())
	bad[0].Outcome.Hits++
	failed, problems := checkDelivered([][]runner.Result{good, good, bad}, nil)
	if failed != 1 || len(problems) != 1 {
		t.Errorf("got %d failed, %d problems; want 1 failed sweep and 1 problem (the changed redelivery)", failed, len(problems))
	}
	failed, problems = checkDelivered([][]runner.Result{good, good}, map[string]error{"cbp5_001": os.ErrInvalid})
	if failed != 2 || len(problems) != 0 {
		t.Errorf("got %d failed, %d problems; want both sweeps of the disagreeing trace failed", failed, len(problems))
	}
}

// The traced run prints exactly the per-layer metrics BENCHMARK.json names.
func TestPerLayerMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(bench.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		if bench.PerLayer[i].Name != l.name || bench.PerLayer[i].Unit != l.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %s %s", i, bench.PerLayer[i], l.name, l.unit)
		}
	}
}
