// Command perfbench is the repository's benchmark. It runs one of three
// workloads against the system for a fixed time, checks every output, and
// prints one JSON line of results:
//
//	perfbench --workload fig11_grid --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the same workload with spans recorded around every call into the system,
// prints the per-layer metrics and the tracing overhead, and writes the
// spans as a Chrome trace under --out. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"thermometer/internal/telemetry/span"
)

const (
	// setupReps is how many times a run sets up; setup_s is their median.
	// All but the last set up in child processes, so each one starts cold.
	setupReps = 3
	// minSweeps is the fewest sweeps a run times, so that ten samples lie
	// beyond the p90.
	minSweeps = 100
	// spanCap bounds the traced run's span ring.
	spanCap = 1 << 18
)

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	setupOnly bool
	out       string
}

// sample is one timed sweep.
type sample struct {
	latency time.Duration
	instr   uint64 // simulated instructions in the sweep's results
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// report is the last line a run prints.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// workloadRun is one workload's life in a run: set up, timed rounds,
// checks after timing, and the traced run's per-layer measurements.
type workloadRun interface {
	// setup starts the system and makes one untimed cold pass over the
	// workload's sweeps. It returns how long that took, the figure
	// setup_s takes the median of.
	setup() (time.Duration, error)
	// round runs one round, the same sweeps every time, and returns one
	// sample per sweep. tr is nil outside the traced rounds.
	round(tr *span.Tracer) ([]sample, error)
	// peakRSS returns the peak resident memory of the system under test, MB.
	peakRSS() (float64, error)
	// check verifies everything delivered during timing. It returns how
	// many timed sweeps failed and every violation of a property that
	// must hold for the sweeps that did not fail.
	check() (failed int, problems []error)
	// layers measures the per-layer metrics after a traced run.
	layers(tr *span.Tracer, m metrics) error
	// close stops everything the workload started.
	close()
}

func newWorkload(o options) (workloadRun, error) {
	switch o.workload {
	case "fig11_grid":
		return newFig11(o), nil
	case "suite_replay":
		return newSuite(o), nil
	case "thermod_fleet":
		return newFleet(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fig11_grid, suite_replay or thermod_fleet)", o.workload)
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "fig11_grid, suite_replay or thermod_fleet")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing per-layer metrics")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "set up once, print the set-up time and exit (used for the repeated set-ups)")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for the Chrome trace and process logs")
	flag.Parse()
	o.trace = traceFlag == 1
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var err error
	if o.setupOnly {
		err = setupOnly(o)
	} else {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// setupOnly is the child side of a repeated set-up.
func setupOnly(o options) error {
	w, err := newWorkload(o)
	if err != nil {
		return err
	}
	defer w.close()
	d, err := w.setup()
	if err != nil {
		return err
	}
	fmt.Printf("%.6f\n", d.Seconds())
	return nil
}

// childSetup runs one cold set-up in a child process and returns its time.
func childSetup(o options) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "--workload", o.workload, "--seed", fmt.Sprint(o.seed), "--out", o.out, "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up in a child process: %w", err)
	}
	var s float64
	if _, err := fmt.Sscan(strings.TrimSpace(string(out)), &s); err != nil {
		return 0, fmt.Errorf("set-up child printed %q: %w", out, err)
	}
	return s, nil
}

func run(o options) error {
	var setups []float64
	if !o.trace {
		for i := 0; i < setupReps-1; i++ {
			s, err := childSetup(o)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
	}
	w, err := newWorkload(o)
	if err != nil {
		return err
	}
	defer w.close()
	d, err := w.setup()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	setups = append(setups, d.Seconds())

	// The timed phase runs whole rounds until the time is up and at least
	// minSweeps sweeps are timed. A traced run alternates untraced and
	// traced rounds, so both halves see the same machine state, and ends
	// on a traced round.
	var tracer *span.Tracer
	if o.trace {
		tracer = span.New(func() int64 { return time.Now().UnixNano() }, spanCap)
	}
	var plain, traced []sample
	phase := time.Now()
	for r := 0; ; r++ {
		var tr *span.Tracer
		if o.trace && r%2 == 1 {
			tr = tracer
		}
		s, err := w.round(tr)
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		if tr != nil {
			traced = append(traced, s...)
		} else {
			plain = append(plain, s...)
		}
		done := time.Since(phase).Seconds() >= o.seconds && len(plain)+len(traced) >= minSweeps
		if done && (!o.trace || r%2 == 1) {
			break
		}
	}
	elapsed := time.Since(phase)
	rss, err := w.peakRSS()
	if err != nil {
		return err
	}

	failed, problems := w.check()
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	rep := report{Correct: len(problems) == 0, Attempted: len(plain) + len(traced), Failed: failed, Metrics: metrics{}}
	if o.trace {
		zeroLayers(rep.Metrics)
		if err := w.layers(tracer, rep.Metrics); err != nil {
			return err
		}
		untracedRate, tracedRate := minstrPerSec(plain), minstrPerSec(traced)
		rep.Metrics.set("tracing.overhead_pct", (untracedRate-tracedRate)/untracedRate*100, "%")
		if err := writeChromeTrace(o, tracer); err != nil {
			return err
		}
	} else {
		lat := latenciesMs(plain)
		rep.Metrics.set("setup_s", median(setups), "s")
		rep.Metrics.set("peak_rss_mb", rss, "MB")
		rep.Metrics.set("sim_minstr_per_s", minstrPerSec(plain), "Minstr/s")
		rep.Metrics.set("sweep_p50_ms", quantile(lat, 0.5), "ms")
		rep.Metrics.set("sweep_p90_ms", quantile(lat, 0.9), "ms")
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d sweeps in %.1fs, set-ups %v s\n",
			o.workload, o.seed, len(plain), elapsed.Seconds(), setups)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// rateWindow is the least wall time over which one throughput reading is
// taken.
const rateWindow = 500 * time.Millisecond

// minstrPerSec is the median simulated-instruction throughput over windows
// of consecutive sweeps lasting at least rateWindow each. The median keeps
// a burst of machine noise in one window from moving the run's figure.
func minstrPerSec(s []sample) float64 {
	var rates []float64
	var n uint64
	var wall time.Duration
	for _, x := range s {
		n += x.instr
		wall += x.latency
		if wall >= rateWindow {
			rates = append(rates, float64(n)/wall.Seconds()/1e6)
			n, wall = 0, 0
		}
	}
	if len(rates) == 0 && wall > 0 {
		rates = append(rates, float64(n)/wall.Seconds()/1e6)
	}
	return median(rates)
}

func latenciesMs(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = float64(x.latency) / float64(time.Millisecond)
	}
	return out
}

func writeChromeTrace(o options, t *span.Tracer) error {
	path := fmt.Sprintf("%s/trace_%s_seed%d.json", o.out, o.workload, o.seed)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s (%d spans, %d dropped)\n", path, t.Total(), t.Dropped())
	return nil
}

// peakRSSOf reads a process's peak resident set (VmHWM) in MB.
func peakRSSOf(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// workers is the compute width: one per core, as the machine has.
func workers() int { return runtime.NumCPU() }
