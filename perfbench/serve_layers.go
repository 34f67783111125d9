package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"depscope/internal/analysis"
	"depscope/internal/core"
	"depscope/internal/incident"
	"depscope/internal/serve"
	"depscope/internal/telemetry"
)

// serveLayersMain gives the serve workloads their per-layer numbers in one
// process: the snapshot build depserver runs at start-up, composed and
// traced like the batch job's, then the serving layer without the network:
// a Manager over that run, serve.Register on a mux, and every read
// endpoint called through mux.ServeHTTP with a recorder. The read pass runs
// untraced, then traced, for the tracing overhead.
func serveLayersMain(args []string) error {
	fs := flag.NewFlagSet("serve-layers", flag.ContinueOnError)
	scale := fs.Int("scale", 0, "snapshot scale")
	seed := fs.Int64("seed", 0, "generator and workload seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale <= 0 {
		return fmt.Errorf("serve-layers needs -scale")
	}
	ctx := context.Background()
	res := newResult()
	var ms0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	reg0 := telemetry.Default.Snapshot()
	spec := jobSpec{scale: *scale}
	tr := &tracer{}
	root := tr.startGroup(0, "build")
	run, err := tracedExecute(ctx, spec, *seed, tr, root)
	tr.end(root)
	if err != nil {
		return err
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	res.Metrics["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	res.Metrics["runtime.gc_cpu_frac"] = ms1.GCCPUFraction
	checkRun(run, spec, res)
	layerMetrics(&jobOut{run: run}, spec, tr, reg0, telemetry.Default.Snapshot(), res)
	rows, coverage := tr.ledger(root)
	res.Ledger = rows
	res.Metrics["trace.coverage_frac"] = coverage

	mgr, err := serveQueries(ctx, run, *scale, *seed, res)
	if err != nil {
		return err
	}
	// The Manager holds the serving layer's share: each snapshot's ranked
	// views and the graphs its deltas published. It is what dropping the
	// Manager frees.
	held := liveHeap()
	runtime.KeepAlive(mgr)
	res.Metrics["mem.serve_bytes_per_site"] = float64(held-min(held, liveHeap())) / float64(*scale)
	attributeMemory(run, *scale, ms0.HeapAlloc, res)
	res.Metrics["mem.attributed_bytes_per_site"] += res.Metrics["mem.serve_bytes_per_site"]
	if res.Failed > 0 {
		return fmt.Errorf("serve-layers: %d of %d operations failed: %v", res.Failed, res.Attempted, res.Problems)
	}
	return res.print()
}

// callsPerEndpoint is how often serveQueries calls each read endpoint per
// pass.
const callsPerEndpoint = 200

// serveQueries times each read endpoint in process, the incident simulation
// behind /incident, and Manager.ApplyDelta. It returns the Manager it
// served from.
func serveQueries(ctx context.Context, run *analysis.Run, scale int, seed int64, res *result) (*serve.Manager, error) {
	mgr := serve.NewManager(ctx, func(context.Context) (*analysis.Run, error) { return run, nil },
		serve.WithSeed(seed), serve.WithDeltaAPI())
	if _, err := mgr.Get(ctx); err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	serve.Register(mux, mgr)
	p := inProcess{mux: mux, scale: scale}
	ws, err := fetchWorkingSet(p.get, scale, seed)
	if err != nil {
		return nil, err
	}
	pass := func(tr *tracer) (time.Duration, map[string][]time.Duration, int, int) {
		g := newGenerator(seed, ws)
		lat := make(map[string][]time.Duration)
		bytesOut, calls := 0, 0
		root := 0
		if tr != nil {
			root = tr.startGroup(0, "serve.reads")
		}
		start := time.Now()
		for _, kind := range endpoints {
			for i := 0; i < callsPerEndpoint; i++ {
				r := g.readOf(kind)
				sp := 0
				if tr != nil {
					sp = tr.start(root, "serve."+kind)
				}
				d, n, _, err := p.do(r)
				if tr != nil {
					tr.end(sp)
				}
				res.check(err == nil, "%v", err)
				lat[kind] = append(lat[kind], d)
				bytesOut += n
				calls++
			}
		}
		wall := time.Since(start)
		if tr != nil {
			tr.end(root)
		}
		return wall, lat, bytesOut, calls
	}
	plain, lat, bytesOut, calls := pass(nil)
	traced, _, _, _ := pass(&tracer{})
	for _, kind := range endpoints {
		res.Metrics["serve."+kind+"_us"] = us(mean(lat[kind]))
	}
	var mixSum time.Duration
	var mixWeight int
	for _, m := range readMix {
		mixSum += mean(lat[m.kind]) * time.Duration(m.weight)
		mixWeight += m.weight
	}
	// The mix-weighted mean, against which the loopback overhead of the
	// HTTP reads is taken.
	res.Metrics["serve.mix_mean_us"] = us(mixSum / time.Duration(mixWeight))
	res.Metrics["serve.response_bytes"] = float64(bytesOut) / float64(calls)
	res.Metrics["trace.overhead_frac"] = traced.Seconds()/plain.Seconds() - 1

	sc, _ := incident.Preset("dyn-replay")
	start := time.Now()
	_, err = analysis.SimulateIncident(ctx, run, sc)
	res.check(err == nil, "simulate incident: %v", err)
	res.Metrics["core.outage_sim_ms"] = ms(time.Since(start))

	g := newGenerator(seed, ws)
	var applies []time.Duration
	for i := 0; i < 10; i++ {
		site, prov := g.edit()
		d := core.Delta{Ops: []core.Op{{Kind: core.OpSiteDep, Name: site, Service: core.DNS,
			Dep: core.Dep{Class: core.ClassSingleThird, Providers: []string{prov}}}}}
		start := time.Now()
		_, err := mgr.ApplyDelta("2020", d, 0)
		applies = append(applies, time.Since(start))
		res.check(err == nil, "apply delta: %v", err)
	}
	res.Metrics["serve.delta_apply_ms"] = ms(mean(applies))
	return mgr, nil
}
