package btb_test

import (
	"testing"

	"thermometer/internal/btb"
	"thermometer/internal/policy"
	"thermometer/internal/trace"
)

// pinZeroAllocs asserts fn performs no heap allocation per invocation,
// pinning the steady-state contract of the SoA BTB: requests are copied
// into BTB-owned scratch, and victim snapshots reuse a per-BTB buffer.
func pinZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	fn() // warm up: first call may grow internal scratch
	if avg := testing.AllocsPerRun(200, fn); avg != 0 {
		t.Errorf("%s: %v allocs per run, want 0", name, avg)
	}
}

func accessDriver(b *btb.BTB) func() {
	i := 0
	return func() {
		pc := uint64(0x1000 + (i%512)*64)
		req := btb.Request{
			PC:          pc,
			Target:      pc ^ 0xfff0,
			Type:        trace.UncondDirect,
			NextUse:     i + 7,
			Index:       i,
			Temperature: uint8(i % 4),
		}
		b.Access(&req)
		if i%5 == 0 {
			req.Prefetch = true
			req.PC ^= 0x40
			b.PrefetchFill(&req)
		}
		b.Lookup(pc)
		i++
	}
}

// TestAccessDoesNotAllocate pins btb.Access, PrefetchFill, and Lookup at
// zero allocations for every dispatch kind, the devirtualized cores and the
// generic interface dispatch (GHRP and Hawkeye have no core), each with and
// without a telemetry probe attached.
func TestAccessDoesNotAllocate(t *testing.T) {
	cases := []struct {
		name string
		mk   func() btb.Policy
	}{
		{"lru-fastpath", func() btb.Policy { return policy.NewLRU() }},
		{"srrip-fastpath", func() btb.Policy { return policy.NewSRRIP() }},
		{"thermometer-fastpath", func() btb.Policy { return policy.NewThermometer() }},
		{"opt-fastpath", func() btb.Policy { return policy.NewOPT() }},
		{"ghrp-generic", func() btb.Policy { return policy.NewGHRP() }},
		{"hawkeye-generic", func() btb.Policy { return policy.NewHawkeye() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, probed := range []bool{false, true} {
				name := "no-probe"
				if probed {
					name = "probe"
				}
				t.Run(name, func(t *testing.T) {
					b := btb.New(256, 4, tc.mk())
					var events uint64
					if probed {
						b.SetProbe(func(kind btb.ProbeKind, set, way int, req *btb.Request, evicted *btb.Entry) {
							events++
						})
					}
					pinZeroAllocs(t, tc.name+"/"+name, accessDriver(b))
					if probed && events == 0 {
						t.Fatal("probe never fired")
					}
				})
			}
		})
	}
}
