package main

// thermod_fleet: a coordinator and one worker per core, each a thermod
// process on loopback, driven by one closed-loop HTTP client.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"thermometer/internal/runner"
	"thermometer/internal/server"
	"thermometer/internal/telemetry"
	"thermometer/internal/telemetry/span"
	"thermometer/internal/workload"
)

const (
	// fleetResubs is the number of resubmissions after each fresh sweep in
	// a round. One fresh sweep in six puts p90 among the fresh sweeps and
	// p50 among the resubmissions, each well away from the boundary.
	fleetResubs = 5
	// fleetScale divides the app traces of the fresh sweeps: simulation is
	// kept small so the serving path and the poll wait dominate. At 1/16
	// length a fresh sweep simulated for about 50 ms, and a slower host
	// moved the p90 from 72 to 100 ms between runs.
	fleetScale = 64
	// fleetPoll is the coordinator's heartbeat, which is also how long an
	// idle worker sleeps after an empty lease. A fresh sweep waits for
	// whichever worker's poll timer fires first. At the 2 s default the
	// two timers' phase, set by chance at start-up, decides the p90 of a
	// whole run: 58 ms on one seed and 1975 ms on the next. At 50 ms the
	// same wait is sampled over a hundred fresh sweeps a run.
	fleetPoll = 50 * time.Millisecond
)

// fleetPolicies are the jobs of one fresh sweep.
var fleetPolicies = []string{"lru", "srrip", "opt", "thermometer"}

type fleetSweep struct {
	specs   []runner.Spec
	fresh   bool
	results []runner.Result
}

type fleet struct {
	o      options
	coord  string      // coordinator base URL
	urls   []string    // every process's base URL, coordinator first
	procs  []*exec.Cmd // same order as urls
	names  []string    // process roles, for logs
	client *http.Client
	rng    *rand.Rand
	traces []appInput // app traces of the fresh sweeps

	cpus   cpuSet // the CPUs the benchmark was given
	procs0 int    // GOMAXPROCS before set-up pinned the client

	pool      [][]runner.Spec // every fresh sweep submitted so far
	delivered []fleetSweep    // every timed sweep
	rounds    int

	// Traced rounds only.
	accept, queueWait, firstEvent, leaseWait []float64
	tracedSweeps, tracedJobs                 float64
	counters                                 map[string]uint64
}

// newFleet draws from the seed the order in which the fresh sweeps take
// the 13 app traces (training inputs), the resubmissions and the think
// times. Every trace is in every run, so the fresh sweeps' mix, which sets
// the p90, is the same whatever the seed. Set-up synthesizes and profiles
// the traces; fresh sweeps then vary only the BTB set count, which keys
// neither the runner's trace nor its hint cache, so the workers' memory
// stops growing once set-up is done.
func newFleet(o options) *fleet {
	rng := rand.New(rand.NewSource(int64(o.seed)))
	names := workload.AppNames()
	var traces []appInput
	for _, j := range rng.Perm(len(names)) {
		traces = append(traces, appInput{name: names[j]})
	}
	return &fleet{o: o, client: &http.Client{Timeout: time.Minute}, rng: rng, traces: traces, counters: map[string]uint64{}}
}

// freshSweep returns the k-th never-submitted sweep of the run: one app
// trace under four policies with a BTB set count no other sweep uses, so
// no spec of it can be in any result cache.
func (f *fleet) freshSweep(k int) []runner.Spec {
	t := f.traces[k%len(f.traces)]
	specs := make([]runner.Spec, len(fleetPolicies))
	for i, p := range fleetPolicies {
		specs[i] = runner.Spec{
			App: t.name, Input: t.input, Scale: fleetScale,
			Policy: p, Hints: p == "thermometer",
			BTBSets: btbEntries/btbWays - 1 - k/len(f.traces),
		}
	}
	return specs
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startProc starts one thermod process on the CPUs of set.
func (f *fleet) startProc(set cpuSet, role string, args ...string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bin := filepath.Join(filepath.Dir(self), "thermod")
	logf, err := os.Create(filepath.Join(f.o.out, fmt.Sprintf("thermod_%d_%s.log", os.Getpid(), role)))
	if err != nil {
		return err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := startOn(set, cmd.Start); err != nil {
		logf.Close()
		return fmt.Errorf("starting thermod %s: %w", role, err)
	}
	logf.Close() // the child holds its own descriptor
	f.procs = append(f.procs, cmd)
	f.names = append(f.names, role)
	return nil
}

// setup starts the coordinator and workers, waits until every worker is
// registered, then runs one fresh sweep per trace cold.
//
// The client and the coordinator share one CPU and the workers may run on
// any. A resubmission is a few HTTP exchanges between the client and the
// coordinator; on two CPUs each exchange can wait for the host to wake the
// other, halted vCPU, which spread the p50 by a third between runs. On one
// CPU the exchanges hand over without a wake-up, while fresh sweeps still
// simulate on every core.
func (f *fleet) setup() (time.Duration, error) {
	start := time.Now()
	err := f.launch()
	return time.Since(start), err
}

func (f *fleet) launch() error {
	all, err := threadAffinity(0, nil)
	if err != nil {
		return err
	}
	one := all.lowest()
	f.cpus = all
	f.procs0 = runtime.GOMAXPROCS(1)
	if err := pinProcess(one); err != nil {
		return err
	}
	addr, err := freePort()
	if err != nil {
		return err
	}
	f.coord = "http://" + addr
	f.urls = append(f.urls, f.coord)
	if err := f.startProc(one, "coordinator", "-coordinator", "-heartbeat", fleetPoll.String(), "-addr", addr); err != nil {
		return err
	}
	// Workers start once the coordinator listens: a worker whose first
	// registration fails retries only after a second.
	if err := f.waitReady(f.coord); err != nil {
		return err
	}
	var workerAddrs []string
	for i := 0; i < workers(); i++ {
		wa, err := freePort()
		if err != nil {
			return err
		}
		name := fmt.Sprintf("w%d", i)
		if err := f.startProc(all, name, "-worker", f.coord, "-name", name, "-workers", "1", "-addr", wa); err != nil {
			return err
		}
		workerAddrs = append(workerAddrs, "http://"+wa)
	}
	f.urls = append(f.urls, workerAddrs...)
	for _, u := range workerAddrs {
		if err := f.waitReady(u); err != nil {
			return err
		}
	}
	// The cold pass: one fresh sweep per trace.
	for range f.traces {
		specs := f.freshSweep(len(f.pool))
		f.pool = append(f.pool, specs)
		if _, _, err := f.sweepTimed(specs, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

func (f *fleet) waitReady(base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := f.client.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after 30s", base)
}

// sweepTimes are one sweep's serving-path timings, in ms.
type sweepTimes struct {
	accept, queueWait, firstEvent, leaseWait float64
	leased                                   bool
}

// sweepTimed submits specs, follows the job's event stream to its end, and
// fetches the results. tr, when non-nil, records a span per step under
// root.
func (f *fleet) sweepTimed(specs []runner.Spec, tr *span.Tracer, root *span.ID) ([]runner.Result, sweepTimes, error) {
	var st sweepTimes
	step := func(name string) span.Active {
		if tr == nil {
			return span.Active{}
		}
		return tr.Start(*root, span.Derive(fmt.Sprint(*root), name), *root, name)
	}
	body, err := json.Marshal(specs)
	if err != nil {
		return nil, st, err
	}
	t0 := time.Now()
	sp := step("client.post")
	resp, err := f.client.Post(f.coord+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, st, err
	}
	var job server.Job
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	st.accept = msSince(t0)
	sp.End()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return nil, st, fmt.Errorf("POST /v1/jobs: status %d: %v", resp.StatusCode, err)
	}

	sp = step("client.events")
	evs, first, err := f.events(job.ID)
	sp.End()
	if err != nil {
		return nil, st, err
	}
	st.firstEvent = float64(first.Sub(t0)) / float64(time.Millisecond)
	var queued, running, started time.Time
	for _, ev := range evs {
		switch {
		case ev.Type == "state" && ev.State == server.StateQueued:
			queued = ev.Time
		case ev.Type == "state" && ev.State == server.StateRunning:
			running = ev.Time
		case ev.Type == "progress" && ev.Progress.State == runner.ProgressStarted && started.IsZero():
			started = ev.Time
		case ev.Type == "progress" && !ev.Progress.Cached && ev.Progress.State != runner.ProgressStarted:
			st.leased = true
		}
	}
	st.queueWait = float64(running.Sub(queued)) / float64(time.Millisecond)
	st.leaseWait = float64(started.Sub(running)) / float64(time.Millisecond)

	sp = step("client.get")
	resp, err = f.client.Get(f.coord + "/v1/jobs/" + job.ID)
	if err != nil {
		return nil, st, err
	}
	var done struct {
		State   string            `json:"state"`
		Results []json.RawMessage `json:"results"`
	}
	err = json.NewDecoder(resp.Body).Decode(&done)
	resp.Body.Close()
	sp.End()
	if err != nil {
		return nil, st, fmt.Errorf("GET %s: %w", job.ID, err)
	}
	if done.State != server.StateDone || len(done.Results) != len(specs) {
		return nil, st, fmt.Errorf("%s ended %s with %d of %d results", job.ID, done.State, len(done.Results), len(specs))
	}
	results := make([]runner.Result, len(done.Results))
	for i, raw := range done.Results {
		if err := json.Unmarshal(raw, &results[i]); err != nil {
			return nil, st, fmt.Errorf("%s result %d: %w", job.ID, i, err)
		}
	}
	return results, st, nil
}

// events follows a job's SSE stream until its end event and returns the
// events and when the first one arrived.
func (f *fleet) events(id string) ([]server.JobEvent, time.Time, error) {
	var first time.Time
	resp, err := f.client.Get(f.coord + "/v1/jobs/" + id + "/events")
	if err != nil {
		return nil, first, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, first, fmt.Errorf("GET events %s: status %d", id, resp.StatusCode)
	}
	var evs []server.JobEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			if first.IsZero() {
				first = time.Now()
			}
			if event == "end" {
				return evs, first, nil
			}
		case strings.HasPrefix(line, "data: ") && event != "":
			var ev server.JobEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return nil, first, fmt.Errorf("event of %s: %w", id, err)
			}
			evs = append(evs, ev)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, first, err
	}
	return nil, first, fmt.Errorf("event stream of %s closed before its end", id)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// round is one fresh sweep followed by fleetResubs whole resubmissions of
// sweeps submitted earlier in the run (the fresh one included), drawn from
// the seed. The client thinks for a seeded random time shorter than the
// poll interval before the fresh sweep, so fresh sweeps arrive at every
// phase of the workers' poll timers instead of locking onto one.
func (f *fleet) round(tr *span.Tracer) ([]sample, error) {
	time.Sleep(time.Duration(f.rng.Int63n(int64(fleetPoll))))
	fresh := f.freshSweep(len(f.pool))
	f.pool = append(f.pool, fresh)
	plan := []fleetSweep{{specs: fresh, fresh: true}}
	for i := 0; i < fleetResubs; i++ {
		plan = append(plan, fleetSweep{specs: f.pool[f.rng.Intn(len(f.pool))]})
	}
	var before map[string]uint64
	if tr != nil {
		var err error
		if before, err = f.scrape(); err != nil {
			return nil, err
		}
	}
	out := make([]sample, 0, len(plan))
	for i, s := range plan {
		var root span.ID
		var sp span.Active
		if tr != nil {
			root = span.Derive("thermod_fleet", fmt.Sprint(f.rounds), fmt.Sprint(i))
			sp = tr.Start(root, root, 0, "sweep")
		}
		t0 := time.Now()
		res, st, err := f.sweepTimed(s.specs, tr, &root)
		lat := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if s.fresh {
			sp.EndDetail("fresh")
		} else {
			sp.EndDetail("resubmission")
		}
		s.results = res
		f.delivered = append(f.delivered, s)
		out = append(out, sample{latency: lat, instr: instructions(res)})
		if tr != nil {
			f.accept = append(f.accept, st.accept)
			f.queueWait = append(f.queueWait, st.queueWait)
			f.firstEvent = append(f.firstEvent, st.firstEvent)
			if st.leased {
				f.leaseWait = append(f.leaseWait, st.leaseWait)
			}
			f.tracedSweeps++
			f.tracedJobs += float64(len(s.specs))
		}
	}
	if tr != nil {
		after, err := f.scrape()
		if err != nil {
			return nil, err
		}
		for k, v := range after {
			f.counters[k] += v - before[k]
		}
	}
	f.rounds++
	return out, nil
}

// scrape sums the counters of every process's /metrics.
func (f *fleet) scrape() (map[string]uint64, error) {
	sum := map[string]uint64{}
	for _, base := range f.urls {
		resp, err := f.client.Get(base + "/metrics")
		if err != nil {
			return nil, err
		}
		var rep telemetry.Report
		err = json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s/metrics: %w", base, err)
		}
		for k, v := range rep.Metrics.Counters {
			sum[k] += v
		}
	}
	return sum, nil
}

func (f *fleet) peakRSS() (float64, error) {
	var sum float64
	for _, c := range f.procs {
		mb, err := peakRSSOf(c.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// check verifies the per-sweep properties, that every resubmission
// delivered exactly what its first delivery did, and that every fresh
// sweep's results are byte-identical to an in-process runner.Engine sweep
// of the same specs (cache flags aside).
func (f *fleet) check() (int, []error) {
	f.unpin()
	eng := &runner.Engine{Workers: workers()}
	bad := map[string]error{}
	compared := map[string]bool{}
	for _, s := range f.delivered {
		if len(s.results) == 0 || compared[s.results[0].Key] {
			continue
		}
		compared[s.results[0].Key] = true
		local := eng.Sweep(context.Background(), s.specs)
		for i, r := range s.results {
			if err := checkSameResult(r, local[i]); err != nil {
				bad[r.Key] = err
			}
		}
	}
	first := deliveries{}
	failed := 0
	var problems []error
	for _, s := range f.delivered {
		err := checkSweep(s.results)
		for _, r := range s.results {
			if err == nil {
				err = bad[r.Key]
			}
			if e := first.check(r); e != nil {
				problems = append(problems, e)
			}
		}
		if err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "perfbench: failed sweep:", err)
		}
	}
	return failed, problems
}

func (f *fleet) layers(tr *span.Tracer, m metrics) error {
	c := f.counters
	m.set("server.accept_ms", mean(f.accept), "ms")
	m.set("server.queue_wait_ms", mean(f.queueWait), "ms")
	m.set("server.first_event_ms", mean(f.firstEvent), "ms")
	m.set("fabric.lease_wait_ms", mean(f.leaseWait), "ms")
	m.set("fabric.leases_per_sweep", float64(c["fabric_leases_granted"])/f.tracedSweeps, "count")
	m.set("fabric.jobs_stolen", float64(c["fabric_jobs_stolen"]), "count")
	m.set("fabric.jobs_requeued", float64(c["fabric_jobs_requeued"]), "count")
	m.set("fabric.prehit_ratio", float64(c["fabric_cache_prehits"])/f.tracedJobs, "ratio")
	m.set("fabric.worker_cache_get_hit_ratio", ratio(c["fabric_worker_cache_hits"], c["fabric_worker_jobs"]-c["fabric_worker_cache_hits"]), "ratio")
	m.set("runner.trace_cache_hit_ratio", ratio(c["runner_trace_cache_hits"], c["runner_trace_cache_misses"]), "ratio")
	m.set("runner.hint_cache_hit_ratio", ratio(c["runner_hint_cache_hits"], c["runner_hint_cache_misses"]), "ratio")
	if err := f.mergeSpans(tr); err != nil {
		return err
	}
	var fresh []runner.Result
	var inputs []layerInput
	for _, s := range f.delivered {
		if s.fresh {
			fresh = append(fresh, s.results...)
			if len(inputs) < 3 {
				app, _ := workload.App(s.specs[0].App)
				inputs = append(inputs, layerInput{app.ScaleLength(1, fleetScale), s.specs[0].Input})
			}
		}
	}
	simMetrics(fresh, m)
	return measureLayers(tr, inputs, m)
}

// mergeSpans copies the coordinator's /debug/spans into tr, so the Chrome
// trace shows the server and lease spans beside the client's.
func (f *fleet) mergeSpans(tr *span.Tracer) error {
	resp, err := f.client.Get(f.coord + "/debug/spans")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				Name   string `json:"name"`
				ID     string `json:"id"`
				Parent string `json:"parent"`
				Detail string `json:"detail"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return fmt.Errorf("/debug/spans: %w", err)
	}
	lanes := map[int]span.ID{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			var id uint64
			fmt.Sscanf(ev.Args.Name, "trace %x", &id)
			lanes[ev.Tid] = span.ID(id)
		}
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		var id, parent uint64
		fmt.Sscanf(ev.Args.ID, "%x", &id)
		fmt.Sscanf(ev.Args.Parent, "%x", &parent)
		tr.Record(span.Span{
			Trace: lanes[ev.Tid], ID: span.ID(id), Parent: span.ID(parent),
			Name: "thermod." + ev.Name, Detail: ev.Args.Detail,
			Start: int64(ev.Ts * 1000), Dur: int64(ev.Dur * 1000),
		})
	}
	return nil
}

// unpin gives the client every CPU back for the in-process checks.
func (f *fleet) unpin() {
	if f.procs0 == 0 {
		return
	}
	if err := pinProcess(f.cpus); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: restoring CPU affinity:", err)
	}
	runtime.GOMAXPROCS(f.procs0)
	f.procs0 = 0
}

// close stops every thermod process and waits for it to exit.
func (f *fleet) close() {
	for _, c := range f.procs {
		_ = c.Process.Signal(syscall.SIGTERM)
	}
	for i, c := range f.procs {
		done := make(chan error, 1)
		go func() { done <- c.Wait() }()
		select {
		case err := <-done:
			var exit *exec.ExitError
			if err != nil && !errors.As(err, &exit) {
				fmt.Fprintf(os.Stderr, "perfbench: thermod %s: %v\n", f.names[i], err)
			}
		case <-time.After(10 * time.Second):
			_ = c.Process.Kill()
			<-done
		}
	}
	f.procs = nil
}
