package main

// Per-layer measurements of the traced run. Each layer is timed from
// outside, by calling its public functions on the workload's own inputs
// with a span around every call.

import (
	"fmt"
	"runtime"
	"time"

	"thermometer/internal/bpred"
	"thermometer/internal/btb"
	"thermometer/internal/cache"
	"thermometer/internal/core"
	"thermometer/internal/policy"
	"thermometer/internal/profile"
	"thermometer/internal/replay"
	"thermometer/internal/runner"
	"thermometer/internal/telemetry/span"
	"thermometer/internal/trace"
	"thermometer/internal/workload"
)

// perLayer lists every per-layer metric with its unit. A traced run prints
// all of them; one whose layer the workload does not use reads 0.
var perLayer = []struct{ name, unit string }{
	{"workload.gen_ms_per_mrec", "ms/Mrec"},
	{"trace.oracle_ms_per_mrec", "ms/Mrec"},
	{"profile.ms_per_maccess", "ms/Maccess"},
	{"profile.lookup_ns", "ns"},
	{"core.ns_per_instr.lru", "ns"},
	{"core.ns_per_instr.srrip", "ns"},
	{"core.ns_per_instr.ghrp", "ns"},
	{"core.ns_per_instr.hawkeye", "ns"},
	{"core.ns_per_instr.opt", "ns"},
	{"core.ns_per_instr.thermometer", "ns"},
	{"core.alloc_kb_per_run", "KB"},
	{"bpred.ns_per_branch", "ns"},
	{"cache.ns_per_fetch", "ns"},
	{"btb.ns_per_access.lru", "ns"},
	{"btb.ns_per_access.srrip", "ns"},
	{"btb.ns_per_access.ghrp", "ns"},
	{"btb.ns_per_access.hawkeye", "ns"},
	{"btb.ns_per_access.opt", "ns"},
	{"btb.ns_per_access.thermometer", "ns"},
	{"replay.ns_per_access", "ns"},
	{"runner.trace_load_ms", "ms"},
	{"runner.hint_load_ms", "ms"},
	{"runner.simulate_ms", "ms"},
	{"runner.job_overhead_ms", "ms"},
	{"runner.worker_busy_pct", "%"},
	{"runner.trace_cache_hit_ratio", "ratio"},
	{"runner.hint_cache_hit_ratio", "ratio"},
	{"server.accept_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.first_event_ms", "ms"},
	{"fabric.lease_wait_ms", "ms"},
	{"fabric.leases_per_sweep", "count"},
	{"fabric.jobs_stolen", "count"},
	{"fabric.jobs_requeued", "count"},
	{"fabric.prehit_ratio", "ratio"},
	{"fabric.worker_cache_get_hit_ratio", "ratio"},
	{"sim.btb_mpki.lru", "MPKI"},
	{"sim.btb_mpki.srrip", "MPKI"},
	{"sim.btb_mpki.ghrp", "MPKI"},
	{"sim.btb_mpki.hawkeye", "MPKI"},
	{"sim.btb_mpki.opt", "MPKI"},
	{"sim.btb_mpki.thermometer", "MPKI"},
	{"sim.redirect_stall_pki", "cycles/kinstr"},
	{"sim.icache_stall_pki", "cycles/kinstr"},
	{"sim.data_stall_pki", "cycles/kinstr"},
	{"sim.therm_speedup_pct", "%"},
	{"sim.therm_missred_pct", "%"},
	{"tracing.overhead_pct", "%"},
}

// zeroLayers sets every per-layer metric to 0, for the workload to fill.
func zeroLayers(m metrics) {
	for _, l := range perLayer {
		m.set(l.name, 0, l.unit)
	}
}

// layerPolicies are the six replacement policies timed per layer.
var layerPolicies = []string{"lru", "srrip", "ghrp", "hawkeye", "opt", "thermometer"}

func newPolicy(name string) btb.Policy {
	switch name {
	case "lru":
		return policy.NewLRU()
	case "srrip":
		return policy.NewSRRIP()
	case "ghrp":
		return policy.NewGHRP()
	case "hawkeye":
		return policy.NewHawkeye()
	case "opt":
		return policy.NewOPT()
	case "thermometer":
		return policy.NewThermometer()
	}
	panic("perfbench: no policy " + name)
}

// layerInput is one trace the layers are timed on.
type layerInput struct {
	spec  workload.AppSpec
	input int
}

// layerClock accumulates one layer's time and work, recording a span per
// call.
type layerClock struct {
	tr    *span.Tracer
	trace span.ID
	calls int
	total map[string]time.Duration
	work  map[string]float64
}

func (c *layerClock) time(name string, work float64, fn func()) {
	c.calls++
	sp := c.tr.Start(c.trace, span.Derive("layers", fmt.Sprint(c.calls)), 0, name)
	t0 := time.Now()
	fn()
	c.total[name] += time.Since(t0)
	sp.End()
	c.work[name] += work
}

// per returns the layer's time in ns per unit of work.
func (c *layerClock) per(name string) float64 {
	return float64(c.total[name].Nanoseconds()) / c.work[name]
}

// measureLayers times every simulator layer on the given traces: trace
// synthesis, the next-use oracle, Belady profiling, hint lookup, the BTB
// per policy, BTB-only replay, the timing core per policy (and its
// allocation per run), TAGE, and the cache hierarchy.
func measureLayers(tr *span.Tracer, inputs []layerInput, m metrics) error {
	c := &layerClock{tr: tr, trace: span.Derive("layers"), total: map[string]time.Duration{}, work: map[string]float64{}}
	var allocBytes, runs float64
	for _, in := range inputs {
		var t *trace.Trace
		c.time("workload.Generate", 0, func() { t = in.spec.Generate(in.input) })
		c.work["workload.Generate"] += float64(len(t.Records))
		var acc []trace.Access
		c.time("trace.AccessStream", float64(len(t.Records)), func() { acc = t.AccessStream() })
		var ht *profile.HintTable
		var err error
		c.time("profile.ProfileTrace", float64(len(acc)), func() {
			ht, _, err = profile.ProfileTrace(t, btbEntries, btbWays, profile.DefaultConfig())
		})
		if err != nil {
			return fmt.Errorf("profiling %s: %w", t.Name, err)
		}
		temps := make([]uint8, len(acc))
		c.time("profile.HintTable.Lookup", float64(len(acc)), func() {
			for i := range acc {
				temps[i] = ht.Lookup(acc[i].PC)
			}
		})
		for _, p := range layerPolicies {
			b := btb.New(btbEntries, btbWays, newPolicy(p))
			c.time("btb.Access."+p, float64(len(acc)), func() {
				for i := range acc {
					a := &acc[i]
					req := btb.Request{PC: a.PC, Target: a.Target, Type: a.Type, NextUse: a.NextUse, Index: i, Temperature: temps[i]}
					b.Access(&req)
				}
			})
		}
		for _, p := range suitePolicies {
			o := replay.Options{Entries: btbEntries, Ways: btbWays, Policy: newPolicy(p)}
			if p == "thermometer" {
				o.Hints = ht
			}
			c.time("replay.Run", float64(len(acc)), func() { replay.Run(acc, o) })
		}
		for _, p := range layerPolicies {
			cfg := core.DefaultConfig()
			cfg.BTBEntries, cfg.BTBWays = btbEntries, btbWays
			cfg.NewPolicy = func() btb.Policy { return newPolicy(p) }
			if p == "thermometer" {
				cfg.Hints = ht
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c.time("core.Run."+p, float64(t.Instructions()), func() { core.Run(t, cfg) })
			runtime.ReadMemStats(&after)
			allocBytes += float64(after.TotalAlloc - before.TotalAlloc)
			runs++
		}
		tage := bpred.NewTAGE()
		var conds float64
		c.time("bpred.TAGE", 0, func() {
			for i := range t.Records {
				r := &t.Records[i]
				if r.Type.IsConditional() {
					tage.Predict(r.PC)
					tage.Update(r.PC, r.Taken)
					conds++
				}
			}
		})
		c.work["bpred.TAGE"] += conds
		h := cache.NewHierarchy()
		c.time("cache.Hierarchy.FetchInstr", float64(len(t.Records)), func() {
			for i := range t.Records {
				h.FetchInstr(t.Records[i].PC)
			}
		})
	}
	m.set("workload.gen_ms_per_mrec", c.per("workload.Generate"), "ms/Mrec") // ns/rec = ms/Mrec
	m.set("trace.oracle_ms_per_mrec", c.per("trace.AccessStream"), "ms/Mrec")
	m.set("profile.ms_per_maccess", c.per("profile.ProfileTrace"), "ms/Maccess")
	m.set("profile.lookup_ns", c.per("profile.HintTable.Lookup"), "ns")
	for _, p := range layerPolicies {
		m.set("btb.ns_per_access."+p, c.per("btb.Access."+p), "ns")
		m.set("core.ns_per_instr."+p, c.per("core.Run."+p), "ns")
	}
	m.set("replay.ns_per_access", c.per("replay.Run"), "ns")
	m.set("core.alloc_kb_per_run", allocBytes/runs/1024, "KB")
	m.set("bpred.ns_per_branch", c.per("bpred.TAGE"), "ns")
	m.set("cache.ns_per_fetch", c.per("cache.Hierarchy.FetchInstr"), "ns")
	return nil
}

// simMetrics derives the simulated statistics from one delivery of every
// spec: BTB MPKI per policy (mean over traces), stall cycles per thousand
// instructions over every timing outcome, and Thermometer's mean speedup
// and miss reduction over LRU per trace. Every value is deterministic.
func simMetrics(results []runner.Result, m metrics) {
	type key struct{ trace, geometry string }
	byTrace := map[key]map[string]*runner.Outcome{}
	var order []key
	mpki := map[string][]float64{}
	var instr, redirect, icache, data float64
	for _, r := range results {
		o := r.Outcome
		k := key{o.Trace + "/" + r.Spec.Mode, fmt.Sprint(r.Spec.BTBEntries, r.Spec.BTBWays)}
		if byTrace[k] == nil {
			byTrace[k] = map[string]*runner.Outcome{}
			order = append(order, k)
		}
		byTrace[k][r.Spec.Policy] = o
		mpki[r.Spec.Policy] = append(mpki[r.Spec.Policy], o.MPKI)
		if r.Spec.Mode == runner.ModeTiming {
			instr += float64(o.Instructions)
			redirect += float64(o.RedirectStall)
			icache += float64(o.ICacheStall)
			data += float64(o.DataStall)
		}
	}
	for _, p := range layerPolicies {
		m.set("sim.btb_mpki."+p, mean(mpki[p]), "MPKI")
	}
	if instr > 0 {
		m.set("sim.redirect_stall_pki", redirect/instr*1000, "cycles/kinstr")
		m.set("sim.icache_stall_pki", icache/instr*1000, "cycles/kinstr")
		m.set("sim.data_stall_pki", data/instr*1000, "cycles/kinstr")
	}
	var speedup, missred []float64
	for _, k := range order {
		lru, th := byTrace[k]["lru"], byTrace[k]["thermometer"]
		if lru == nil || th == nil {
			continue
		}
		if lru.IPC > 0 {
			speedup = append(speedup, (th.IPC/lru.IPC-1)*100)
		}
		if lru.Misses > 0 {
			missred = append(missred, (1-float64(th.Misses)/float64(lru.Misses))*100)
		}
	}
	m.set("sim.therm_speedup_pct", mean(speedup), "%")
	m.set("sim.therm_missred_pct", mean(missred), "%")
}
