package main

import (
	"testing"
	"time"
)

func TestRanShare(t *testing.T) {
	a := hostClock{cpu: time.Second, steal: 2 * time.Second}
	for _, c := range []struct {
		b    hostClock
		want float64
	}{
		{hostClock{cpu: 4 * time.Second, steal: 3 * time.Second}, 0.75}, // 3 s ran, 1 s stolen
		{hostClock{cpu: 3 * time.Second, steal: 2 * time.Second}, 1},    // no steal
		{hostClock{cpu: time.Second, steal: 3 * time.Second}, 1},        // no CPU time: nothing to scale
	} {
		if got := ranShare(a, c.b); got != c.want {
			t.Errorf("ranShare(%v, %v) = %v, want %v", a, c.b, got, c.want)
		}
	}
}

func TestLowestCPU(t *testing.T) {
	var s cpuSet
	s[1] = 0b1100 // CPUs 66 and 67
	got := s.lowest()
	var want cpuSet
	want[1] = 0b100
	if got != want {
		t.Errorf("lowest of %v = %v, want %v", s, got, want)
	}
}

func TestReadHostClock(t *testing.T) {
	a, err := readHostClock()
	if err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(20 * time.Millisecond); time.Now().Before(end); {
	}
	b, err := readHostClock()
	if err != nil {
		t.Fatal(err)
	}
	if b.cpu <= a.cpu || b.steal < a.steal {
		t.Errorf("clock went from %+v to %+v over 20 ms of spinning", a, b)
	}
	if s := ranShare(a, b); s <= 0 || s > 1 {
		t.Errorf("ranShare = %v, want in (0, 1]", s)
	}
}
