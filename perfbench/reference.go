package main

// An independent reference BTB, written from the paper's description and
// sharing no code with internal/btb, internal/belady or internal/profile.
// It is deliberately naive: each set is a map from PC to its resident line,
// recency is a global clock stamped on every touch, and OPT finds its
// victim by scanning the residents' next uses directly. It exists to check
// the program's replacement decisions and hint tables, not to be fast.

import (
	"fmt"
	"math"

	"thermometer/internal/trace"
)

// refNever is the next use of an access whose branch is never taken again.
const refNever = math.MaxInt

// refAccess is one demand BTB access: a taken branch with the stream
// position of the next access to the same PC.
type refAccess struct {
	pc   uint64
	next int
}

// refStream filters a trace to its taken branches and finds each one's next
// use by a backward scan.
func refStream(recs []trace.Record) []refAccess {
	var acc []refAccess
	for _, r := range recs {
		if r.Taken {
			acc = append(acc, refAccess{pc: r.PC, next: refNever})
		}
	}
	last := map[uint64]int{}
	for i := len(acc) - 1; i >= 0; i-- {
		if j, ok := last[acc[i].pc]; ok {
			acc[i].next = j
		}
		last[acc[i].pc] = i
	}
	return acc
}

// refCounts are the demand outcomes of one reference run. Misses include
// bypasses.
type refCounts struct {
	Accesses, Hits, Misses, Bypasses uint64
}

type refLine struct {
	stamp uint64 // last touch (hit or insert)
	next  int    // next use, for OPT
}

// refRun replays acc through a sets×ways BTB under policy "lru", "opt" or
// "thermometer". temps gives each PC's temperature for "thermometer" (0 is
// coldest). perBranch, when non-nil, receives per-PC {taken, hits}.
func refRun(acc []refAccess, sets, ways int, policy string, temps map[uint64]uint8, perBranch map[uint64]*[2]uint64) (refCounts, error) {
	switch policy {
	case "lru", "opt", "thermometer":
	default:
		return refCounts{}, fmt.Errorf("reference: unknown policy %q", policy)
	}
	table := make([]map[uint64]*refLine, sets)
	var c refCounts
	var clock uint64
	for _, a := range acc {
		c.Accesses++
		clock++
		set := table[a.pc%uint64(sets)]
		if set == nil {
			set = map[uint64]*refLine{}
			table[a.pc%uint64(sets)] = set
		}
		var pb *[2]uint64
		if perBranch != nil {
			if pb = perBranch[a.pc]; pb == nil {
				pb = new([2]uint64)
				perBranch[a.pc] = pb
			}
			pb[0]++
		}
		if l, ok := set[a.pc]; ok {
			c.Hits++
			l.stamp, l.next = clock, a.next
			if pb != nil {
				pb[1]++
			}
			continue
		}
		c.Misses++
		if len(set) < ways {
			set[a.pc] = &refLine{stamp: clock, next: a.next}
			continue
		}
		victim, bypass := refVictim(set, policy, a, temps)
		if bypass {
			c.Bypasses++
			continue
		}
		delete(set, victim)
		set[a.pc] = &refLine{stamp: clock, next: a.next}
	}
	return c, nil
}

// refVictim picks the resident to evict from a full set, or reports that
// the incoming access bypasses the BTB.
func refVictim(set map[uint64]*refLine, policy string, in refAccess, temps map[uint64]uint8) (victim uint64, bypass bool) {
	switch policy {
	case "opt":
		// Belady with bypass: evict the resident reused furthest in the
		// future; the incoming branch itself is a candidate and wins ties.
		// Ties among residents happen only between never-reused lines, and
		// which of those goes does not change any later outcome.
		furthest, found := in.next, false
		for pc, l := range set {
			if l.next > furthest || (found && l.next == furthest && pc < victim) {
				furthest, victim, found = l.next, pc, true
			}
		}
		return victim, !found
	case "thermometer":
		// Algorithm 1: the coldest temperature among the incoming branch and
		// the residents; bypass when the incoming branch alone has it,
		// otherwise evict the least recently used resident that has it.
		coldest := temps[in.pc]
		for pc := range set {
			if t := temps[pc]; t < coldest {
				coldest = t
			}
		}
		return lruAmong(set, func(pc uint64) bool { return temps[pc] == coldest })
	default:
		return lruAmong(set, func(uint64) bool { return true })
	}
}

// lruAmong returns the least recently touched resident that passes keep,
// or bypass when none does.
func lruAmong(set map[uint64]*refLine, keep func(uint64) bool) (victim uint64, bypass bool) {
	oldest := uint64(math.MaxUint64)
	for pc, l := range set {
		if keep(pc) && l.stamp < oldest {
			oldest, victim = l.stamp, pc
		}
	}
	return victim, oldest == math.MaxUint64
}

// refTemperatures recomputes the paper's branch temperatures: per branch,
// its OPT hits divided by the times it was taken, binned cold (<= 50 %),
// warm (<= 80 %) or hot. It also returns the OPT run's counts.
func refTemperatures(acc []refAccess, sets, ways int) (map[uint64]uint8, refCounts) {
	per := map[uint64]*[2]uint64{}
	c, _ := refRun(acc, sets, ways, "opt", nil, per)
	temps := make(map[uint64]uint8, len(per))
	for pc, p := range per {
		ratio := float64(p[1]) / float64(p[0])
		switch {
		case ratio <= 0.50:
			temps[pc] = 0
		case ratio <= 0.80:
			temps[pc] = 1
		default:
			temps[pc] = 2
		}
	}
	return temps, c
}
