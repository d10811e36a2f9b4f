package core

import (
	"testing"

	"thermometer/internal/attribution"
	"thermometer/internal/btb"
	"thermometer/internal/hintqual"
	"thermometer/internal/policy"
	"thermometer/internal/profile"
	"thermometer/internal/telemetry"
	"thermometer/internal/trace"
)

// hintedConfig builds a Thermometer run whose hint table is profiled from
// the given training trace at the run's geometry.
func hintedConfig(t *testing.T, train *trace.Trace) Config {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NewPolicy = func() btb.Policy { return policy.NewThermometer() }
	ht, _, err := profile.ProfileTrace(train, cfg.BTBEntries, cfg.BTBWays, profile.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Hints = ht
	return cfg
}

// Like the observer and attribution layers, the hint-quality audit must be a
// pure read-side tap: attaching it cannot change a single architectural or
// timing statistic — alone, alongside an observer, or alongside both the
// observer and the attribution recorder. Every composition shares one probe
// fan-out, so the audit must also score the same demand stream in each:
// its demand counts agree across all four (drift windows follow the epoch
// grid, so they differ by design).
func TestHintQualDoesNotPerturbResult(t *testing.T) {
	tr := smallTrace(t, "kafka")
	base := Run(tr, hintedConfig(t, tr))

	variants := map[string]func(*Config){
		"bare": func(cfg *Config) {
			cfg.HintQual = hintqual.New(hintqual.Options{})
		},
		"with-attribution": func(cfg *Config) {
			cfg.HintQual = hintqual.New(hintqual.Options{})
			cfg.Attribution = attribution.New(attribution.Options{})
		},
		"with-observer": func(cfg *Config) {
			cfg.HintQual = hintqual.New(hintqual.Options{})
			cfg.Observer = telemetry.New(telemetry.Options{EpochInterval: 5000})
		},
		"with-observer-and-attribution": func(cfg *Config) {
			cfg.HintQual = hintqual.New(hintqual.Options{})
			cfg.Observer = telemetry.New(telemetry.Options{EpochInterval: 5000})
			cfg.Attribution = attribution.New(attribution.Options{})
		},
	}
	type demandCounts struct {
		accesses, over, under uint64
		branches              int
	}
	audited := make(map[string]demandCounts, len(variants))
	for name, mutate := range variants {
		cfg := hintedConfig(t, tr)
		mutate(&cfg)
		r := Run(tr, cfg)
		s := cfg.HintQual.Summary()
		audited[name] = demandCounts{s.Accesses, s.OverPredicted, s.UnderPredicted, s.Branches}
		if r.Cycles != base.Cycles || r.Instructions != base.Instructions {
			t.Fatalf("%s: audit perturbed timing: %d/%d cycles, %d/%d instructions",
				name, r.Cycles, base.Cycles, r.Instructions, base.Instructions)
		}
		if r.BTB != base.BTB {
			t.Fatalf("%s: audit perturbed BTB stats:\n with    %+v\n without %+v", name, r.BTB, base.BTB)
		}
		if r.RedirectStall != base.RedirectStall || r.ICacheStall != base.ICacheStall || r.DataStall != base.DataStall {
			t.Fatalf("%s: audit perturbed stall attribution", name)
		}
		if r.DirMispredicts != base.DirMispredicts {
			t.Fatalf("%s: audit perturbed direction prediction", name)
		}
	}
	want := audited["bare"]
	if want.accesses == 0 {
		t.Fatal("bare audit scored no accesses")
	}
	for name, got := range audited {
		if got != want {
			t.Errorf("%s: audit demand counts %+v differ from the bare audit's %+v", name, got, want)
		}
	}
}

// The recorder's demand-access count must agree exactly with the BTB's own
// post-warmup demand statistics (the probe taps the same stream), and an
// observerless run must still close one drift window over the measured
// region.
func TestHintQualAccountingMatchesBTB(t *testing.T) {
	tr := smallTrace(t, "mediawiki")
	cfg := hintedConfig(t, tr)
	hq := hintqual.New(hintqual.Options{})
	cfg.HintQual = hq
	r := Run(tr, cfg)

	s := hq.Summary()
	if s.Accesses != r.BTB.Accesses {
		t.Fatalf("audit scored %d accesses, BTB counted %d", s.Accesses, r.BTB.Accesses)
	}
	if s.Branches == 0 || s.CoverageAccesses == 0 {
		t.Fatalf("empty audit: %+v", s)
	}
	if s.Windows != 1 {
		t.Fatalf("observerless run closed %d windows, want 1", s.Windows)
	}

	// With an observer, windows close on the epoch grid and the summary
	// counters land in the registry.
	cfg = hintedConfig(t, tr)
	hq = hintqual.New(hintqual.Options{})
	cfg.HintQual = hq
	obs := telemetry.New(telemetry.Options{EpochInterval: 5000})
	cfg.Observer = obs
	Run(tr, cfg)
	if s := hq.Summary(); s.Windows < 2 {
		t.Fatalf("epoch-gridded run closed %d windows, want >= 2", s.Windows)
	}
	snap := obs.Metrics.Snapshot()
	if snap.Counters["hintqual_accesses"] == 0 {
		t.Fatal("hintqual_accesses counter not published")
	}
	if _, ok := snap.Counters["hintqual_drift_epochs"]; !ok {
		t.Fatal("hintqual_drift_epochs counter not published")
	}
}

// A same-input profile must audit as substantially more accurate than a
// stale (heavily truncated) profile of the same workload — the measurement
// the cross-input drift story rests on.
func TestHintQualRanksProfileFreshness(t *testing.T) {
	tr := smallTrace(t, "kafka")
	audit := func(train *trace.Trace) hintqual.Summary {
		cfg := hintedConfig(t, train)
		hq := hintqual.New(hintqual.Options{})
		cfg.HintQual = hq
		Run(tr, cfg)
		return hq.Summary()
	}
	fresh := audit(tr)
	stale := audit(truncateTrace(tr, 10))
	if fresh.AccuracyBranches <= stale.AccuracyBranches {
		t.Fatalf("same-input profile accuracy %.3f not above stale-profile accuracy %.3f",
			fresh.AccuracyBranches, stale.AccuracyBranches)
	}
	if fresh.CoverageBranches <= stale.CoverageBranches {
		t.Fatalf("same-input coverage %.3f not above stale coverage %.3f",
			fresh.CoverageBranches, stale.CoverageBranches)
	}
}

// truncateTrace keeps the first 1/div of a trace's records, modeling an
// undertrained profiling run.
func truncateTrace(tr *trace.Trace, div int) *trace.Trace {
	n := len(tr.Records) / div
	return &trace.Trace{Name: tr.Name + "-stale", Records: tr.Records[:n]}
}
