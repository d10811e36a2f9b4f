package main

// Host-time accounting for a VM that shares its host: the host can take
// a vCPU away while a thread on it wants to run (steal time), and a
// message between two processes can wait for a halted vCPU to be woken.
// Both move wall-time figures between runs by more than the benchmark's
// bounds, so the benchmark measures around them where it can.

import (
	"bufio"
	"errors"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// hostClock is a reading of this process's CPU time and of the steal time
// of every vCPU of the machine.
type hostClock struct{ cpu, steal time.Duration }

// userHz is the unit of /proc/stat's times on Linux.
const userHz = 100

func readHostClock() (hostClock, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return hostClock{}, err
	}
	cpu := time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostClock{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return hostClock{}, errors.New("/proc/stat is empty")
	}
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostClock{}, errors.New("/proc/stat has no steal column")
	}
	ticks, err := strconv.ParseUint(fields[8], 10, 64)
	if err != nil {
		return hostClock{}, err
	}
	return hostClock{cpu: cpu, steal: time.Duration(ticks) * time.Second / userHz}, nil
}

// ranShare is the share of the time this process's threads were ready to
// run between a and b that the host actually ran them: CPU time over CPU
// time plus steal. Steal accrues only on a vCPU that has a thread to run,
// and nothing but the benchmark runs in the VM, so the machine's steal is
// the benchmark's. Scaling a wall time of compute-bound work by ranShare
// gives the time it took net of steal.
func ranShare(a, b hostClock) float64 {
	cpu, steal := b.cpu-a.cpu, b.steal-a.steal
	if cpu <= 0 || steal <= 0 {
		return 1
	}
	return float64(cpu) / float64(cpu+steal)
}

// netOfSteal runs fn and returns its wall time net of steal.
func netOfSteal(fn func() error) (time.Duration, error) {
	a, err := readHostClock()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	wall := time.Since(start)
	b, err := readHostClock()
	if err != nil {
		return 0, err
	}
	return time.Duration(float64(wall) * ranShare(a, b)), nil
}

// cpuSet is a Linux CPU affinity mask.
type cpuSet [16]uint64

// lowest is the set of the lowest CPU in s.
func (s *cpuSet) lowest() cpuSet {
	for i, w := range s {
		if w != 0 {
			var one cpuSet
			one[i] = w & -w
			return one
		}
	}
	return *s
}

// threadAffinity reads or (set non-nil) writes the affinity of thread tid,
// 0 meaning the calling thread.
func threadAffinity(tid int, set *cpuSet) (cpuSet, error) {
	var cur cpuSet
	if set != nil {
		_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set)))
		if e != 0 {
			return cur, e
		}
		return *set, nil
	}
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(cur), uintptr(unsafe.Pointer(&cur)))
	if e != 0 {
		return cur, e
	}
	return cur, nil
}

// pinProcess sets the affinity of every thread of this process. Threads
// started later inherit it from the thread that starts them.
func pinProcess(set cpuSet) error {
	for pass := 0; pass < 2; pass++ { // a thread may start during the first pass
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if _, err := threadAffinity(tid, &set); err != nil && !errors.Is(err, syscall.ESRCH) {
				return err
			}
		}
	}
	return nil
}

// startOn runs start, which starts a child process, on a thread whose
// affinity is set: the child inherits the affinity of the thread that
// forks it.
func startOn(set cpuSet, start func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, err := threadAffinity(0, nil)
	if err != nil {
		return err
	}
	if _, err := threadAffinity(0, &set); err != nil {
		return err
	}
	err = start()
	if _, e := threadAffinity(0, &old); err == nil {
		err = e
	}
	return err
}
