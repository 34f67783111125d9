package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The open-loop generator: one process, at most GOMAXPROCS connections and
// worker goroutines, requests sent on a fixed schedule whether or not the
// server keeps up. Each request is timed from when it was due, so a stall
// also charges the requests queued behind it.

// serveSpec is one serve workload's traffic on each server. The reference
// step gives the read latencies; the ladder climbs past it, on one server
// of the run, for the capacity figure.
type serveSpec struct {
	ladder    []float64 // read rates (1/s) climbed after the reference step; nil climbs none
	writeRate float64   // delta writes per second during the reference step
	probes    int       // sequential delta writes after the reference step
}

// The traffic levels. The reasons for each value are in README.md.
const (
	referenceRPS  = 500                    // read rate of the reference step
	ladderStep    = time.Second            // length of every ladder step above the reference
	readP99Limit  = 25 * time.Millisecond  // read p99 within which a step is met
	warmupStep    = 500 * time.Millisecond // unmeasured reads before the schedule
	probeGap      = 20 * time.Millisecond  // pause before each sequential delta write
	clientTimeout = 10 * time.Second
)

var serveSpecs = map[string]serveSpec{
	"serve-read-20k":  {ladder: []float64{1000, 2000, 3000, 4000}, probes: 20},
	"serve-write-20k": {writeRate: 6},
}

func loadMain(args []string) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	workload := fs.String("workload", "", "serve workload name")
	base := fs.String("addr", "", "depserver base URL")
	pid := fs.String("pid", "", "depserver process id, for its CPU time")
	scale := fs.Int("scale", 0, "the server's scale")
	seed := fs.Int64("seed", 0, "workload seed")
	seconds := fs.Float64("seconds", 0, "length of the reference step")
	climb := fs.Bool("ladder", false, "climb the workload's ladder after the reference step and report the highest rate met")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, ok := serveSpecs[*workload]
	if !ok {
		return fmt.Errorf("unknown serve workload %q", *workload)
	}
	if *base == "" || *pid == "" || *scale <= 0 || *seconds <= 0 {
		return fmt.Errorf("load needs -addr, -pid, -scale and -seconds")
	}
	return runLoad(spec, *base, *pid, *scale, *seed, time.Duration(*seconds*float64(time.Second)), *climb)
}

type httpTarget struct {
	client *http.Client
	base   string
	scale  int
}

// send sends r and reads the whole response, timing both.
func (h httpTarget) send(r request) (time.Duration, int, []byte, error) {
	req, err := http.NewRequest(r.method, h.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, 0, nil, err
	}
	start := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		return time.Since(start), 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return time.Since(start), resp.StatusCode, body, err
}

// do sends r and checks the answer.
func (h httpTarget) do(r request) (time.Duration, uint64, error) {
	d, status, body, err := h.send(r)
	if err != nil {
		return d, 0, err
	}
	v, err := r.verify(status, body, h.scale)
	return d, v, err
}

func (h httpTarget) get(path string) ([]byte, error) {
	resp, err := h.client.Get(h.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, err
}

// scheduled is one request with its due offset from the step start.
type scheduled struct {
	req request
	due time.Duration
}

// outcome is one request's measurement.
type outcome struct {
	kind    string
	latency time.Duration // completion - due
	lag     time.Duration // send - due
	service time.Duration // completion - send
	status  int
	body    []byte // kept until the step ends, then checked
	version uint64
	err     error
}

// stepStats summarizes one schedule step.
type stepStats struct {
	reads      []time.Duration
	service    []time.Duration // reads only
	writes     []outcome
	lags       []time.Duration
	failed     int
	sent       int
	backlogMax int
	growing    bool
	cpu        time.Duration
	errs       []error
}

// schedule lays out rate reads per second (and writeRate writes) evenly
// over d.
func schedule(g *generator, rate, writeRate float64, d time.Duration) []scheduled {
	var s []scheduled
	for i := 0; float64(i) < rate*d.Seconds(); i++ {
		s = append(s, scheduled{req: g.read(), due: time.Duration(float64(i) / rate * float64(time.Second))})
	}
	for i := 0; float64(i) < writeRate*d.Seconds(); i++ {
		// Offset half a period so writes do not coincide with step start.
		s = append(s, scheduled{req: g.write(), due: time.Duration((float64(i) + 0.5) / writeRate * float64(time.Second))})
	}
	sort.SliceStable(s, func(i, j int) bool { return s[i].due < s[j].due })
	return s
}

// runStep sends the schedule with the given worker count and measures it.
// The backlog is the number of requests already due but not yet sent,
// sampled at every send.
func runStep(t httpTarget, sched []scheduled, workers int, pid string) stepStats {
	outs := make([]outcome, len(sched))
	backlog := make([]int, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0 := procCPU(pid)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i].due)
				sleepUntil(due)
				sent := time.Now()
				elapsed := sent.Sub(start)
				dueNow := sort.Search(len(sched), func(j int) bool { return sched[j].due > elapsed })
				backlog[i] = dueNow - i - 1
				svc, status, body, err := t.send(sched[i].req)
				lag := sent.Sub(due)
				outs[i] = outcome{kind: sched[i].req.kind, latency: lag + svc, lag: lag, service: svc, status: status, body: body, err: err}
			}
		}()
	}
	wg.Wait()
	st := stepStats{sent: len(sched), cpu: procCPU(pid) - cpu0}
	// The answers are checked after the step: decoding a body on a
	// worker would make the requests due behind it late, and the latency
	// ends when the response is read.
	for i := range outs {
		o := &outs[i]
		if o.err == nil {
			o.version, o.err = sched[i].req.verify(o.status, o.body, t.scale)
		}
		o.body = nil
	}
	for i, o := range outs {
		if o.err != nil {
			st.failed++
			st.errs = append(st.errs, o.err)
		}
		if o.kind == "delta" {
			st.writes = append(st.writes, o)
		} else {
			st.reads = append(st.reads, o.latency)
			st.service = append(st.service, o.service)
		}
		st.lags = append(st.lags, o.lag)
		st.backlogMax = max(st.backlogMax, backlog[i])
	}
	// A backlog that grows over the step means the server (or generator)
	// cannot keep the rate: compare the last quarter with the first.
	q := len(backlog) / 4
	if q > 0 {
		first, last := 0, 0
		for i := 0; i < q; i++ {
			first += backlog[i]
			last += backlog[len(backlog)-1-i]
		}
		st.growing = float64(last-first)/float64(q) > float64(workers)
	}
	return st
}

func runLoad(spec serveSpec, base, pid string, scale int, seed int64, refDur time.Duration, climb bool) error {
	workers := runtime.GOMAXPROCS(0)
	tr := &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers, DisableCompression: true}
	defer tr.CloseIdleConnections()
	t := httpTarget{client: &http.Client{Transport: tr, Timeout: clientTimeout}, base: base, scale: scale}
	ws, err := fetchWorkingSet(t.get, scale, seed)
	if err != nil {
		return err
	}
	g := newGenerator(seed, ws)
	res := newResult()
	m := res.Metrics
	sent := 0
	// step runs one schedule step, counts its requests and reports whether
	// it was met.
	step := func(rate, writeRate float64, d time.Duration) (stepStats, bool) {
		st := runStep(t, schedule(g, rate, writeRate, d), workers, pid)
		sent += st.sent
		res.Attempted += st.sent
		res.Failed += st.failed
		for _, err := range st.errs {
			if len(res.Problems) < 20 {
				res.Problems = append(res.Problems, err.Error())
			}
		}
		p99 := quantile(st.reads, 0.99)
		met := st.failed == 0 && !st.growing && p99 <= readP99Limit
		fmt.Fprintf(os.Stderr, "step %6.0f/s: sent %5d failed %d read p50 %7.3fms (service %7.3fms, lag %7.3fms) p99 %7.3fms lag p99 %7.3fms backlog max %4d growing %v met %v\n",
			rate, st.sent, st.failed, ms(quantile(st.reads, 0.5)), ms(quantile(st.service, 0.5)), ms(quantile(st.lags, 0.5)),
			ms(p99), ms(quantile(st.lags, 0.99)), st.backlogMax, st.growing, met)
		return st, met
	}
	// Start from a collected server heap, then warm the connections and
	// the server's first-touch paths, unmeasured.
	if _, err := t.get("/debug/pprof/heap?gc=1"); err != nil {
		return err
	}
	step(referenceRPS, 0, warmupStep)

	ref, refMet := step(referenceRPS, spec.writeRate, refDur)
	readLatencies(m, ref.reads)
	wins := windowQuantiles(ref.reads, readWindow, 0.50)
	if len(wins) == 0 {
		wins = []time.Duration{quantile(ref.reads, 0.50)} // a step shorter than one window
	}
	for _, d := range wins {
		res.ReadWindows = append(res.ReadWindows, ms(d))
	}
	m["gen.reads"] = float64(len(ref.reads))
	m["gen.lag_p99_ms"] = ms(quantile(ref.lags, 0.99))
	m["gen.backlog_max"] = float64(ref.backlogMax)
	m["gen.service_mean_us"] = us(mean(ref.service))
	if len(ref.reads) > 0 {
		m["serve.cpu_us_per_req"] = us(ref.cpu / time.Duration(len(ref.reads)+len(ref.writes)))
	}

	writes := ref.writes
	// Uncontended writes: sequential edits after the reference step, from
	// a collected heap, each after a short pause.
	if spec.probes > 0 {
		if _, err := t.get("/debug/pprof/heap?gc=1"); err != nil {
			return err
		}
	}
	for i := 0; i < spec.probes; i++ {
		time.Sleep(probeGap)
		r := g.write()
		d, v, err := t.do(r)
		sent++
		res.check(err == nil, "%v", err)
		writes = append(writes, outcome{kind: "delta", latency: d, version: v, err: err})
	}
	var wl []time.Duration
	var versions []uint64
	for _, o := range writes {
		wl = append(wl, o.latency)
		if o.err == nil {
			versions = append(versions, o.version)
		}
	}
	// Every accepted delta must publish exactly one new version.
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	for i := 1; i < len(versions); i++ {
		res.check(versions[i] == versions[i-1]+1, "delta versions %d then %d, want +1", versions[i-1], versions[i])
	}
	m["write_p50_ms"] = ms(quantile(wl, 0.50))
	m["gen.writes"] = float64(len(wl))
	m["gen.write_p90_ms"] = ms(quantile(wl, 0.90))

	// The capacity ladder comes last, so its overload step cannot disturb
	// the figures above. It starts from a collected heap: climbed straight
	// after the edits, a collection lands in one of its steps and fails it.
	if climb {
		if _, err := t.get("/debug/pprof/heap?gc=1"); err != nil {
			return err
		}
		maxRPS := 0.0
		if refMet {
			maxRPS = referenceRPS
		}
		for _, rate := range spec.ladder {
			if _, met := step(rate, 0, ladderStep); met {
				maxRPS = max(maxRPS, rate)
			}
		}
		m["gen.read_max_rps"] = maxRPS
	}
	// Every request sent, warm-up and ladder included.
	m["gen.sent"] = float64(sent)
	return res.print()
}

// sleepUntil blocks the calling thread in nanosleep until t. The runtime's
// own timers wake through the network poller at millisecond granularity,
// which would add up to a millisecond of generator lateness to every
// request; a blocking nanosleep wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
	}
}

// procCPU is a process's user plus system CPU time from /proc/<pid>/stat.
func procCPU(pid string) time.Duration {
	if pid == "" {
		return 0
	}
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields overall, in clock ticks (100 per second).
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}
