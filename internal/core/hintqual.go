package core

import (
	"thermometer/internal/btb"
	"thermometer/internal/hintqual"
)

// forwardHintQual routes one probe event to the hint-quality recorder. Only
// the demand stream is scored: hits, inserts, and bypasses. Evictions are
// replacement decisions (the attribution layer's business) and prefetch
// fills are not demand accesses, so neither advances the Belady shadow.
func forwardHintQual(hq *hintqual.Recorder, kind btb.ProbeKind, set int, req *btb.Request) {
	switch kind {
	case btb.ProbeHit, btb.ProbeInsert, btb.ProbeBypass:
		hq.OnDemand(set, req)
	default:
		// ProbeEvict, ProbePrefetchFill: not demand accesses.
	}
}

// attachHintQual binds the recorder to this run's geometry and hint table;
// sim.probe feeds it the probe stream. Like attribution, hint-quality audit
// models a single monolithic BTB: the same-geometry Belady shadow assumes
// one set-indexing function, which neither the Shotgun partition nor the
// two-level organization satisfies.
func attachHintQual(cfg *Config, res *Result, bank *btbBank) {
	if cfg.ShotgunPartition || cfg.TwoLevelBTB != nil {
		panic("core: hint-quality audit requires a monolithic BTB (no ShotgunPartition/TwoLevelBTB)")
	}
	hq := cfg.HintQual
	if hq == nil {
		return
	}
	hq.Bind(res.Policy.Name(), bank.main.Sets(), bank.main.Ways(), cfg.Hints)
}
