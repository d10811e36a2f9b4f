package main

// Output checks. Each returns nil or an error naming the first violation,
// and is a pure function of the outcomes it is given so the tests can feed
// it deliberately wrong ones.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"thermometer/internal/profile"
	"thermometer/internal/runner"
)

// fetchWidth is the modelled core's fetch and retire width (Table 1); no
// run can retire more instructions per cycle.
const fetchWidth = 6

// checkOutcome checks the properties every outcome must have on its own:
// demand hits and misses account for every access, and IPC (timing mode)
// stays within the fetch width.
func checkOutcome(r runner.Result) error {
	if r.Err != "" {
		return fmt.Errorf("%s/%s: job failed: %s", r.Spec.TraceName(), r.Spec.Policy, r.Err)
	}
	o := r.Outcome
	if o == nil {
		return fmt.Errorf("%s/%s: no outcome", r.Spec.TraceName(), r.Spec.Policy)
	}
	if o.Hits+o.Misses != o.Accesses {
		return fmt.Errorf("%s/%s: hits %d + misses %d != accesses %d", o.Trace, r.Spec.Policy, o.Hits, o.Misses, o.Accesses)
	}
	if o.Bypasses > o.Misses {
		return fmt.Errorf("%s/%s: bypasses %d exceed misses %d", o.Trace, r.Spec.Policy, o.Bypasses, o.Misses)
	}
	if o.IPC > fetchWidth {
		return fmt.Errorf("%s/%s: IPC %.4f exceeds the fetch width %d", o.Trace, r.Spec.Policy, o.IPC, fetchWidth)
	}
	return nil
}

// checkSweep checks one sweep's results, which all run the same trace
// under different policies: each outcome on its own, then instructions and
// BTB accesses identical across policies, and, in replay mode, OPT misses
// no more than any other policy's (Belady with bypass is optimal).
func checkSweep(results []runner.Result) error {
	for _, r := range results {
		if err := checkOutcome(r); err != nil {
			return err
		}
	}
	if len(results) == 0 {
		return fmt.Errorf("empty sweep")
	}
	first := results[0].Outcome
	var opt *runner.Outcome
	for _, r := range results {
		o := r.Outcome
		if o.Trace != first.Trace {
			return fmt.Errorf("sweep mixes traces %s and %s", first.Trace, o.Trace)
		}
		if o.Instructions != first.Instructions || o.Accesses != first.Accesses {
			return fmt.Errorf("%s: %s ran %d instructions / %d accesses but %s ran %d / %d",
				o.Trace, r.Spec.Policy, o.Instructions, o.Accesses, results[0].Spec.Policy, first.Instructions, first.Accesses)
		}
		if r.Spec.Mode == runner.ModeReplay && r.Spec.Policy == "opt" {
			opt = o
		}
	}
	if opt != nil {
		for _, r := range results {
			if r.Outcome.Misses < opt.Misses {
				return fmt.Errorf("%s: %s misses %d < OPT misses %d", opt.Trace, r.Spec.Policy, r.Outcome.Misses, opt.Misses)
			}
		}
	}
	return nil
}

// checkReference compares a replay outcome with the reference model's
// counts for the same trace and policy.
func checkReference(r runner.Result, want refCounts) error {
	o := r.Outcome
	got := refCounts{Accesses: o.Accesses, Hits: o.Hits, Misses: o.Misses, Bypasses: o.Bypasses}
	if got != want {
		return fmt.Errorf("%s/%s: program %+v, reference %+v", o.Trace, r.Spec.Policy, got, want)
	}
	return nil
}

// checkHints compares a hint table with the reference temperatures: the
// same branches, each in the same bin.
func checkHints(name string, ht *profile.HintTable, temps map[uint64]uint8) error {
	if len(ht.Hints) != len(temps) {
		return fmt.Errorf("%s: hint table has %d branches, reference %d", name, len(ht.Hints), len(temps))
	}
	for pc, want := range temps {
		got, ok := ht.Hints[pc]
		if !ok {
			return fmt.Errorf("%s: branch %#x missing from the hint table", name, pc)
		}
		if got != want {
			return fmt.Errorf("%s: branch %#x has temperature %d, reference %d", name, pc, got, want)
		}
	}
	return nil
}

// canonical encodes a result without its cache flag, which says where the
// outcome came from, not what it is.
func canonical(r runner.Result) []byte {
	r.Cached = false
	b, err := json.Marshal(r)
	if err != nil {
		panic("perfbench: result does not encode: " + err.Error())
	}
	return b
}

// deliveries remembers the first delivery of every spec and checks each
// later delivery against it byte for byte.
type deliveries map[string][]byte

func (d deliveries) check(r runner.Result) error {
	b := canonical(r)
	if first, ok := d[r.Key]; ok {
		if !bytes.Equal(first, b) {
			return fmt.Errorf("%s/%s: delivery differs from the first one:\n first %s\n later %s", r.Spec.TraceName(), r.Spec.Policy, first, b)
		}
		return nil
	}
	d[r.Key] = b
	return nil
}

// checkSameResult checks a result served by the fleet against the same
// spec run in process: byte-identical apart from the cache flag.
func checkSameResult(fleet, local runner.Result) error {
	if f, l := canonical(fleet), canonical(local); !bytes.Equal(f, l) {
		return fmt.Errorf("%s/%s: fleet result differs from the in-process sweep:\n fleet %s\n local %s",
			fleet.Spec.TraceName(), fleet.Spec.Policy, f, l)
	}
	return nil
}
