package core

import (
	"thermometer/internal/attribution"
	"thermometer/internal/btb"
)

// forwardAttrib routes one probe event to the recorder. Prefetch-initiated
// fills are not demand accesses, but their evictions are still replacement
// decisions and are recorded as such (the miss classifier only ever sees the
// demand stream).
func forwardAttrib(att *attribution.Recorder, res *Result, kind btb.ProbeKind, set, way int, req *btb.Request, victim *btb.Entry) {
	switch kind {
	case btb.ProbeHit:
		att.OnHit(set, way, req)
	case btb.ProbeInsert:
		att.OnInsert(set, way, req)
	case btb.ProbeEvict:
		att.OnEvict(res.Cycles, set, way, req, victim)
	case btb.ProbeBypass:
		att.OnBypass(res.Cycles, set, req)
	case btb.ProbePrefetchFill:
		att.OnPrefetchFill(set, way, req)
	}
}

// attachAttribution binds the recorder to this run's geometry; sim.probe
// feeds it the probe stream. Attribution models a single monolithic BTB:
// the shadow reference models assume one set-indexing function, which
// neither the Shotgun partition nor the two-level organization satisfies.
func attachAttribution(cfg *Config, res *Result, bank *btbBank) {
	if cfg.ShotgunPartition || cfg.TwoLevelBTB != nil {
		panic("core: attribution requires a monolithic BTB (no ShotgunPartition/TwoLevelBTB)")
	}
	att := cfg.Attribution
	if att == nil {
		return
	}
	att.Bind(res.Policy.Name(), bank.main.Sets(), bank.main.Ways())
}
