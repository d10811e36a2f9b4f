package main

import (
	"context"
	"testing"

	"thermometer/internal/profile"
	"thermometer/internal/runner"
	"thermometer/internal/trace"
	"thermometer/internal/workload"
)

// stream builds a taken-branch record sequence from single-letter PCs.
func stream(s string) []trace.Record {
	recs := make([]trace.Record, 0, len(s))
	for _, ch := range s {
		recs = append(recs, trace.Record{PC: uint64(ch), Target: uint64(ch) + 1, Taken: true, Type: trace.UncondDirect})
	}
	return recs
}

func TestRefStreamNextUse(t *testing.T) {
	recs := stream("ABA")
	recs = append(recs[:1], append([]trace.Record{{PC: 'Z'}}, recs[1:]...)...) // a not-taken branch is no access
	acc := refStream(recs)
	want := []refAccess{{'A', 2}, {'B', refNever}, {'A', refNever}}
	if len(acc) != len(want) {
		t.Fatalf("got %d accesses, want %d", len(acc), len(want))
	}
	for i := range want {
		if acc[i] != want[i] {
			t.Errorf("access %d = %+v, want %+v", i, acc[i], want[i])
		}
	}
}

// Hand-worked outcomes on one set of two ways. In "ABCABC" every access
// misses under LRU. OPT keeps A and B and bypasses both Cs: the first C is
// reused after A and B, and the second is never reused, which ties with the
// never-reused residents and so bypasses. Thermometer follows the
// temperatures it is given.
func TestRefRunHandWorked(t *testing.T) {
	acc := refStream(stream("ABCABC"))
	cases := []struct {
		policy string
		temps  map[uint64]uint8
		want   refCounts
	}{
		{"lru", nil, refCounts{Accesses: 6, Hits: 0, Misses: 6}},
		{"opt", nil, refCounts{Accesses: 6, Hits: 2, Misses: 4, Bypasses: 2}},
		// C uniquely coldest: bypassed both times, A and B hit.
		{"thermometer", map[uint64]uint8{'A': 2, 'B': 2, 'C': 0}, refCounts{Accesses: 6, Hits: 2, Misses: 4, Bypasses: 2}},
		// A coldest: the first C evicts A, then the returning A is uniquely
		// coldest and bypasses, so B and C hit.
		{"thermometer", map[uint64]uint8{'A': 0, 'B': 2, 'C': 2}, refCounts{Accesses: 6, Hits: 2, Misses: 4, Bypasses: 1}},
		// All equal: Thermometer degenerates to LRU.
		{"thermometer", map[uint64]uint8{'A': 1, 'B': 1, 'C': 1}, refCounts{Accesses: 6, Misses: 6}},
	}
	for _, tc := range cases {
		got, err := refRun(acc, 1, 2, tc.policy, tc.temps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s %v: got %+v, want %+v", tc.policy, tc.temps, got, tc.want)
		}
	}
}

// LRU tie-break inside Algorithm 1: with A and B equally cold, the incoming
// C evicts whichever was touched least recently.
func TestRefThermometerLRUTieBreak(t *testing.T) {
	temps := map[uint64]uint8{'A': 0, 'B': 0, 'C': 1}
	// A B A C B: C evicts B (A was re-touched), so the final B misses.
	got, _ := refRun(refStream(stream("ABACB")), 1, 2, "thermometer", temps, nil)
	if want := (refCounts{Accesses: 5, Hits: 1, Misses: 4}); got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

// Sets are selected by PC modulo the set count: 'A' (65) and 'C' (67) share
// set 1 of 2, 'B' (66) lives alone in set 0.
func TestRefRunSetIndexing(t *testing.T) {
	got, _ := refRun(refStream(stream("ACBACB")), 2, 1, "lru", nil, nil)
	if want := (refCounts{Accesses: 6, Hits: 1, Misses: 5}); got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

// Temperatures by hand on one set of one way, stream "AABAB": A misses and
// fills, then hits. B's next use (4) is further than A's (3), so B bypasses
// and A hits again. The last B is never reused and neither is A, so the tie
// bypasses B once more. A: 2 hits / 3 taken = 67 %, warm; B: 0 / 2, cold.
func TestRefTemperaturesHandWorked(t *testing.T) {
	temps, c := refTemperatures(refStream(stream("AABAB")), 1, 1)
	if want := (refCounts{Accesses: 5, Hits: 2, Misses: 3, Bypasses: 2}); c != want {
		t.Errorf("OPT counts %+v, want %+v", c, want)
	}
	if temps['A'] != 1 || temps['B'] != 0 {
		t.Errorf("temperatures A=%d B=%d, want warm(1) and cold(0)", temps['A'], temps['B'])
	}
}

func TestRefRunRejectsUnknownPolicy(t *testing.T) {
	if _, err := refRun(nil, 1, 1, "srrip", nil, nil); err == nil {
		t.Fatal("want an error for a policy the reference does not model")
	}
}

// The program's replay outcomes and hint tables agree with the reference on
// short suite traces; the benchmark makes the same comparison at full size.
func TestReferenceAgreesWithProgram(t *testing.T) {
	eng := &runner.Engine{Workers: 1}
	for _, idx := range []int{3, 41} {
		specs := suiteSweep(runner.SuiteCBP5, idx, 16)
		results := eng.Sweep(context.Background(), specs)
		if err := checkSweep(results); err != nil {
			t.Fatal(err)
		}
		tr := workload.CBP5Spec(idx).ScaleLength(1, 16).Generate(0)
		want, err := referenceReplay(tr.Records)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if err := checkReference(r, want[r.Spec.Policy]); err != nil {
				t.Error(err)
			}
		}
		ht, _, err := profile.ProfileTrace(tr, btbEntries, btbWays, profile.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		temps, _ := refTemperatures(refStream(tr.Records), btbEntries/btbWays, btbWays)
		if err := checkHints(tr.Name, ht, temps); err != nil {
			t.Error(err)
		}
	}
}
