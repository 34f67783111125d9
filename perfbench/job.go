package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"io"
	"net/http"
	"runtime"
	"time"

	"depscope/internal/analysis"
	"depscope/internal/casestudy"
	"depscope/internal/chain"
	"depscope/internal/conc"
	"depscope/internal/core"
	"depscope/internal/ecosystem"
	"depscope/internal/incident"
	"depscope/internal/measure"
	"depscope/internal/membudget"
	"depscope/internal/serve"
	"depscope/internal/telemetry"
)

// jobSpec is one batch workload: a depscope-equivalent job.
type jobSpec struct {
	scale int
	// paper runs the full report, validation, case studies and the
	// mc-baseline sweep; otherwise only Table 1 and the chains section.
	paper   bool
	compact bool
	chains  bool
}

var jobSpecs = map[string]jobSpec{
	"paper-100k":         {scale: 100000, paper: true},
	"stream-chains-100k": {scale: 100000, compact: true, chains: true},
}

// analysisBatchSize mirrors analysis.Options' default streaming batch
// length (8192 sites), so the traced composition batches like Execute.
const analysisBatchSize = 8192

// In-process query phase after the job: reads of the serve mix and
// single-op edits, against the run the job holds. An edit at 100K sites
// takes about 100 ms and varies by 15% from one to the next on a shared
// machine, so the write figure is the median of 32.
const (
	jobReads  = 1024
	jobWrites = 32
)

// sweepScenarios is the size of the mc-baseline preset the paper job runs.
const sweepScenarios = 2000

// jobOut is what the job hands to the checks and metrics.
type jobOut struct {
	run        *analysis.Run
	wall       time.Duration
	validation *analysis.ValidationReport
	sweep      *incident.SweepReport
	sweepWall  time.Duration
}

func jobMain(args []string) error {
	fs := flag.NewFlagSet("job", flag.ContinueOnError)
	workload := fs.String("workload", "", "batch workload name")
	seed := fs.Int64("seed", 0, "generator seed")
	trace := fs.Int("trace", 0, "1 runs the traced composition")
	t0 := fs.Int64("t0", 0, "process spawn time in Unix nanoseconds, taken by the parent")
	setupOnly := fs.Bool("setup-only", false, "exit at the point the job would start")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, ok := jobSpecs[*workload]
	if !ok {
		return fmt.Errorf("unknown batch workload %q", *workload)
	}
	if *t0 <= 0 {
		return fmt.Errorf("job needs -t0")
	}
	// Set-up ends where the job's first call into depscope begins.
	setup := time.Since(time.Unix(0, *t0))
	res := newResult()
	res.Metrics["setup_s"] = setup.Seconds()
	if *setupOnly {
		return res.print()
	}
	ctx := context.Background()
	var ms0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	reg0 := telemetry.Default.Snapshot()

	out := newDigestWriter()
	var jo *jobOut
	var err error
	var tr *tracer
	var root int
	if *trace == 1 {
		tr = &tracer{}
		root = tr.startGroup(0, "job")
		jo, err = tracedJob(ctx, spec, *seed, out, tr, root)
		tr.end(root)
	} else {
		jo, err = untracedJob(ctx, spec, *seed, out)
	}
	if err != nil {
		return err
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	reg1 := telemetry.Default.Snapshot()
	res.Digests["output"] = out.sum()
	res.Metrics["run_wall_s"] = jo.wall.Seconds()
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	res.Metrics["peak_rss_mb"] = rss

	checkRun(jo.run, spec, res)
	t1 := newDigestWriter()
	analysis.RenderTable1(t1, jo.run)
	res.Digests["table1"] = t1.sum()

	if jo.sweep != nil {
		res.check(jo.sweep.Scenarios == sweepScenarios, "sweep ran %d scenarios, want %d", jo.sweep.Scenarios, sweepScenarios)
		res.Metrics["incident.sweep_s"] = jo.sweepWall.Seconds()
		res.Metrics["incident.sweep_scenarios"] = float64(jo.sweep.Scenarios)
	}
	if jo.validation != nil {
		checkValidation(jo.validation, res)
		res.Metrics["analysis.dns_classifier_accuracy"] = jo.validation.CombinedAccuracy
	}
	res.Metrics["retained_bytes_per_site"] = float64(liveHeap()) / float64(spec.scale)

	if tr != nil {
		// The traced run ends with the job: its layer numbers, ledger and
		// the attribution of the retained heap it just measured. The query
		// phase's figures come from the untraced run.
		res.Metrics["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		res.Metrics["runtime.gc_cpu_frac"] = ms1.GCCPUFraction
		layerMetrics(jo, spec, tr, reg0, reg1, res)
		rows, coverage := tr.ledger(root)
		res.Ledger = rows
		res.Metrics["trace.coverage_frac"] = coverage
		attributeMemory(jo.run, spec.scale, ms0.HeapAlloc, res)
		return res.print()
	}

	// Validation is part of the paper job; the streamed job runs it
	// afterwards, untimed by run_wall_s, as an output check.
	if jo.validation == nil {
		start := time.Now()
		vr, err := analysis.Validate(ctx, jo.run)
		res.check(err == nil, "validate: %v", err)
		res.Metrics["analysis.validation_s"] = time.Since(start).Seconds()
		checkValidation(&vr, res)
		res.Metrics["analysis.dns_classifier_accuracy"] = vr.CombinedAccuracy
	}
	if err := queryPhase(ctx, jo.run, spec.scale, *seed, res); err != nil {
		return err
	}
	res.Metrics["ops_ok_frac"] = float64(res.Attempted-res.Failed) / float64(res.Attempted)
	return res.print()
}

// queryPhase serves the job's run through serve.Register in process and
// sends it the read mix and single-op edits.
func queryPhase(ctx context.Context, run *analysis.Run, scale int, seed int64, res *result) error {
	mgr := serve.NewManager(ctx, func(context.Context) (*analysis.Run, error) { return run, nil },
		serve.WithSeed(seed), serve.WithDeltaAPI())
	if _, err := mgr.Get(ctx); err != nil {
		return fmt.Errorf("serve snapshot: %w", err)
	}
	mux := http.NewServeMux()
	serve.Register(mux, mgr)
	p := inProcess{mux: mux, scale: scale}
	ws, err := fetchWorkingSet(p.get, scale, seed)
	if err != nil {
		return err
	}
	inProcessPhase(p, newGenerator(seed, ws), jobReads, jobWrites, res)
	return nil
}

// untracedJob is the job as depscope runs it.
func untracedJob(ctx context.Context, spec jobSpec, seed int64, w io.Writer) (*jobOut, error) {
	jo := &jobOut{}
	start := time.Now()
	opts := analysis.Options{Scale: spec.scale, Seed: seed, Compact: spec.compact}
	if spec.chains {
		cfg := chain.Default()
		opts.Chains = &cfg
	}
	run, err := analysis.Execute(ctx, opts)
	if err != nil {
		return nil, err
	}
	jo.run = run
	if !spec.paper {
		analysis.RenderTable1(w, run)
		analysis.RenderChains(w, run)
		jo.wall = time.Since(start)
		return jo, nil
	}
	analysis.Report(w, run)
	vr, err := analysis.Validate(ctx, run)
	if err != nil {
		return nil, err
	}
	jo.validation = &vr
	fmt.Fprintf(w, "%+v\n", vr)
	if err := caseStudies(ctx, w, seed); err != nil {
		return nil, err
	}
	sp, _ := incident.SweepPreset("mc-baseline")
	sweepStart := time.Now()
	jo.sweep, err = analysis.MonteCarloSweep(ctx, run, sp, 0)
	jo.sweepWall = time.Since(sweepStart)
	if err != nil {
		return nil, err
	}
	jo.sweep.WriteText(w)
	jo.wall = time.Since(start)
	return jo, nil
}

func caseStudies(ctx context.Context, w io.Writer, seed int64) error {
	h, err := casestudy.Hospitals(ctx, seed)
	if err != nil {
		return err
	}
	io.WriteString(w, h.Render())
	s, err := casestudy.SmartHome(ctx, nil)
	if err != nil {
		return err
	}
	io.WriteString(w, s.Render())
	return nil
}

// reportSteps are analysis.Report's sections in its order; the traced job
// renders them one span each and must produce Report's bytes.
var reportSteps = []struct {
	name   string
	render func(io.Writer, *analysis.Run)
}{
	{"table1", analysis.RenderTable1}, {"table2", analysis.RenderTable2},
	{"figure2", analysis.RenderFigure2}, {"table3", analysis.RenderTable3},
	{"figure3", analysis.RenderFigure3}, {"table4", analysis.RenderTable4},
	{"figure4", analysis.RenderFigure4}, {"table5", analysis.RenderTable5},
	{"figure5", analysis.RenderFigure5}, {"figure5_bands", analysis.RenderFigure5Bands},
	{"figure6", analysis.RenderFigure6}, {"table6", analysis.RenderTable6},
	{"figure7", analysis.RenderFigure7}, {"table7", analysis.RenderTable7},
	{"figure8", analysis.RenderFigure8}, {"table8", analysis.RenderTable8},
	{"figure9", analysis.RenderFigure9}, {"table9", analysis.RenderTable9},
	{"hidden_deps", analysis.RenderHiddenDeps}, {"critical_deps", analysis.RenderCriticalDeps},
	{"dyn_replay", analysis.RenderDynReplay}, {"mitigation", analysis.RenderMitigation},
	{"chains", analysis.RenderChains},
}

// tracedJob composes the same job from the layers' exported calls, one span
// around each.
func tracedJob(ctx context.Context, spec jobSpec, seed int64, w io.Writer, tr *tracer, root int) (*jobOut, error) {
	jo := &jobOut{}
	start := time.Now()
	run, err := tracedExecute(ctx, spec, seed, tr, root)
	if err != nil {
		return nil, err
	}
	jo.run = run
	if !spec.paper {
		tr.group(root, "analysis.report", func(id int) {
			tr.do(id, "analysis.table1", func() { analysis.RenderTable1(w, run) })
			tr.do(id, "analysis.chains", func() { analysis.RenderChains(w, run) })
		})
		jo.wall = time.Since(start)
		return jo, nil
	}
	// The report's first provider ranking (Figure 5: direct concentration
	// on the 2020 graph, per service) fills that graph's metrics engine;
	// doing it here gives the fill its own span, and the report reuses it.
	tr.do(root, "core.metrics_fill", func() {
		for _, svc := range core.Services {
			run.Y2020.Graph.TopProviders(svc, core.DirectOnly(), false, 5)
		}
	})
	tr.group(root, "analysis.report", func(id int) {
		for _, st := range reportSteps {
			tr.do(id, "analysis."+st.name, func() { st.render(w, run) })
		}
	})
	var vr analysis.ValidationReport
	tr.do(root, "analysis.Validate", func() { vr, err = analysis.Validate(ctx, run) })
	if err != nil {
		return nil, err
	}
	jo.validation = &vr
	fmt.Fprintf(w, "%+v\n", vr)
	tr.do(root, "casestudy", func() { err = caseStudies(ctx, w, seed) })
	if err != nil {
		return nil, err
	}
	sp, _ := incident.SweepPreset("mc-baseline")
	tr.do(root, "incident.MonteCarloSweep", func() {
		sweepStart := time.Now()
		jo.sweep, err = analysis.MonteCarloSweep(ctx, run, sp, 0)
		jo.sweepWall = time.Since(sweepStart)
	})
	if err != nil {
		return nil, err
	}
	tr.do(root, "incident.WriteText", func() { jo.sweep.WriteText(w) })
	jo.wall = time.Since(start)
	return jo, nil
}

// tracedExecute mirrors analysis.Execute step for step, one span around
// each call into ecosystem, measure and core.
func tracedExecute(ctx context.Context, spec jobSpec, seed int64, tr *tracer, root int) (*analysis.Run, error) {
	var chainCfg *chain.Config
	if spec.chains {
		cfg := chain.Default()
		chainCfg = &cfg
	}
	var u *ecosystem.Universe
	var err error
	tr.do(root, "ecosystem.Generate", func() {
		u, err = ecosystem.Generate(ecosystem.Options{Scale: spec.scale, Seed: seed})
	})
	if err != nil {
		return nil, err
	}
	snaps := []ecosystem.Snapshot{ecosystem.Y2016, ecosystem.Y2020}
	workers := runtime.GOMAXPROCS(0)
	snapWorkers := len(snaps)
	if spec.compact {
		snapWorkers = 1
	}
	measured := make([]*analysis.SnapshotData, len(snaps))
	tr.group(root, "analysis.snapshots", func(id int) {
		err = conc.ForEach(ctx, len(snaps), snapWorkers, conc.FailFast, func(ctx context.Context, i int) error {
			sid := tr.startGroup(id, "snapshot."+snaps[i].String())
			defer tr.end(sid)
			var sd *analysis.SnapshotData
			var err error
			if spec.compact {
				sd, err = tracedCompactSnapshot(ctx, tr, sid, u, snaps[i], chainCfg, workers)
			} else {
				sd, err = tracedSnapshot(ctx, tr, sid, u, snaps[i], chainCfg, workers)
			}
			measured[i] = sd
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	return &analysis.Run{Scale: spec.scale, Universe: u, Y2016: measured[0], Y2020: measured[1]}, nil
}

// measureConfig is the measure.Config analysis.Execute builds for a world;
// the resolver over the world's zones is built inside its own span.
func measureConfig(tr *tracer, sid int, w *ecosystem.World, chainCfg *chain.Config, workers int) measure.Config {
	cfg := measure.Config{
		Certs:   w.Certs,
		Pages:   w,
		CDNMap:  measure.CDNMap(w.CNAMEToCDN),
		Workers: workers,
		Chains:  chainCfg,
	}
	tr.do(sid, "ecosystem.NewResolver", func() { cfg.Resolver = w.NewResolver() })
	return cfg
}

// tracedSnapshot is the default (monolithic) path of one snapshot.
func tracedSnapshot(ctx context.Context, tr *tracer, sid int, u *ecosystem.Universe, snap ecosystem.Snapshot, chainCfg *chain.Config, workers int) (*analysis.SnapshotData, error) {
	var w *ecosystem.World
	tr.do(sid, "ecosystem.Materialize", func() { w = ecosystem.Materialize(u, snap) })
	if chainCfg != nil && chainCfg.Enabled() {
		tr.do(sid, "ecosystem.MaterializeChains", func() { ecosystem.MaterializeChains(u, w, *chainCfg) })
	}
	var res *measure.Results
	var err error
	cfg := measureConfig(tr, sid, w, chainCfg, workers)
	tr.do(sid, "measure.Run", func() { res, err = measure.Run(ctx, w.Sites, cfg) })
	if err != nil {
		return nil, err
	}
	var g *core.Graph
	tr.do(sid, "core.BuildGraph", func() {
		g = analysis.BuildGraph(res)
		g.SetMetricsWorkers(workers)
	})
	return &analysis.SnapshotData{Snapshot: snap, World: w, Results: res, Graph: g}, nil
}

// tracedCompactSnapshot is the streamed/columnar path of one snapshot.
func tracedCompactSnapshot(ctx context.Context, tr *tracer, sid int, u *ecosystem.Universe, snap ecosystem.Snapshot, chainCfg *chain.Config, workers int) (*analysis.SnapshotData, error) {
	acct := membudget.New(0)
	var c *ecosystem.Chunked
	tr.do(sid, "ecosystem.NewChunked", func() { c = ecosystem.NewChunked(u, snap) })
	if chainCfg != nil && chainCfg.Enabled() {
		tr.do(sid, "ecosystem.EnableChains", func() { c.EnableChains(*chainCfg) })
	}
	w := c.World()
	var st *measure.Stream
	var err error
	cfg := measureConfig(tr, sid, w, chainCfg, workers)
	tr.do(sid, "measure.NewStream", func() { st, err = measure.NewStream(c.SiteNames(), cfg) })
	if err != nil {
		return nil, err
	}
	n := c.Len()
	batches := func(f func(lo, hi int) error) error {
		for lo := 0; lo < n; lo += analysisBatchSize {
			if err := f(lo, min(lo+analysisBatchSize, n)); err != nil {
				return err
			}
		}
		return nil
	}
	err = batches(func(lo, hi int) error {
		tr.do(sid, "ecosystem.AddSites", func() { c.AddSites(lo, hi) })
		tr.do(sid, "measure.ResolveBatch", func() { err = st.ResolveBatch(ctx, lo, hi) })
		if err != nil {
			return err
		}
		return acct.Check("zone materialization")
	})
	if err != nil {
		return nil, err
	}
	tr.do(sid, "measure.Seal", func() { st.Seal() })
	err = batches(func(lo, hi int) error {
		tr.do(sid, "ecosystem.MaterializePages", func() { c.MaterializePages(lo, hi) })
		tr.do(sid, "measure.MeasureBatch", func() { err = st.MeasureBatch(ctx, lo, hi) })
		if err != nil {
			return err
		}
		tr.do(sid, "ecosystem.ReleasePages", func() { c.ReleasePages(lo, hi) })
		return acct.Check("site measurement")
	})
	if err != nil {
		return nil, err
	}
	var res *measure.Results
	tr.do(sid, "measure.Finish", func() { res, err = st.Finish(ctx) })
	if err != nil {
		return nil, err
	}
	if err := acct.Check("inter-service resolution"); err != nil {
		return nil, err
	}
	var cg *core.CompactGraph
	tr.do(sid, "core.BuildCompactGraph", func() {
		cg = analysis.BuildCompactGraph(res)
		cg.SetMetricsWorkers(workers)
	})
	var g *core.Graph
	tr.do(sid, "core.Inflate", func() {
		g = cg.Inflate()
		g.SetMetricsWorkers(workers)
	})
	if err := acct.Check("graph build"); err != nil {
		return nil, err
	}
	return &analysis.SnapshotData{Snapshot: snap, World: w, Results: res, Graph: g, Compact: cg}, nil
}

// checkRun verifies each snapshot: every ranked site measured or counted
// uncharacterized, the §3.1 pair accounting adding up, no stage errors.
func checkRun(run *analysis.Run, spec jobSpec, res *result) {
	for _, sd := range []*analysis.SnapshotData{run.Y2016, run.Y2020} {
		if sd == nil {
			res.check(false, "snapshot missing")
			continue
		}
		r := sd.Results
		res.check(len(r.Sites) == spec.scale, "%s: %d site results, want %d", sd.Snapshot, len(r.Sites), spec.scale)
		measured, unchar := 0, 0
		for i := range r.Sites {
			if r.Sites[i].DNS.Class == core.ClassUnknown {
				unchar++
			} else {
				measured++
			}
		}
		res.check(measured+unchar == spec.scale && measured > 0, "%s: %d measured + %d uncharacterized != %d", sd.Snapshot, measured, unchar, spec.scale)
		ps := r.PairStats
		res.check(ps.Total == ps.Private+ps.Third+ps.Uncharacterized && ps.Total > 0,
			"%s: pair stats %+v do not add up", sd.Snapshot, ps)
		res.check(r.Diagnostics.TotalErrors() == 0, "%s: %d stage errors", sd.Snapshot, r.Diagnostics.TotalErrors())
		res.check(sd.Graph != nil && len(sd.Graph.Sites) == spec.scale, "%s: graph missing or short", sd.Snapshot)
		res.check(!spec.compact || sd.Compact != nil, "%s: compact graph missing", sd.Snapshot)
		if spec.chains {
			edges := 0
			for i := range r.Sites {
				edges += len(r.Sites[i].Chains)
			}
			res.check(edges > 0, "%s: chains enabled but no chain edges measured", sd.Snapshot)
		}
	}
}

// checkValidation requires the combined DNS classifier to score a
// non-empty sample and to beat neither strawman by less than zero.
func checkValidation(vr *analysis.ValidationReport, res *result) {
	res.check(vr.Pairs > 0 && vr.CombinedAccuracy >= vr.TLDAccuracy && vr.CombinedAccuracy >= vr.SOAAccuracy,
		"validation: %d pairs, combined %.4f vs tld %.4f soa %.4f", vr.Pairs, vr.CombinedAccuracy, vr.TLDAccuracy, vr.SOAAccuracy)
}

// liveHeap forces two collections and returns the live heap.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

type digestWriter struct{ h hash.Hash }

func newDigestWriter() *digestWriter { return &digestWriter{h: sha256.New()} }

func (d *digestWriter) Write(p []byte) (int, error) { return d.h.Write(p) }
func (d *digestWriter) sum() string                 { return hex.EncodeToString(d.h.Sum(nil)) }

// layerMetrics derives the per-layer numbers from the traced job's spans,
// the measured results and the telemetry registry's change over the job.
func layerMetrics(jo *jobOut, spec jobSpec, tr *tracer, before, after telemetry.Snapshot, res *result) {
	m := res.Metrics
	m["ecosystem.generate_s"] = tr.total("ecosystem.Generate")
	m["ecosystem.materialize_s"] = tr.total("ecosystem.Materialize") + tr.total("ecosystem.NewChunked") +
		tr.total("ecosystem.AddSites") + tr.total("ecosystem.MaterializePages") + tr.total("ecosystem.ReleasePages")
	// On the streamed path chains grow inside MaterializePages (counted in
	// materialize_s); only the vendor set-up of EnableChains is separate.
	m["ecosystem.chains_materialize_s"] = tr.total("ecosystem.MaterializeChains") + tr.total("ecosystem.EnableChains")
	zones := 0
	for _, sd := range []*analysis.SnapshotData{jo.run.Y2016, jo.run.Y2020} {
		zones += sd.World.Zones.ZoneCount()
	}
	m["ecosystem.zones"] = float64(zones)

	hist := func(name string) (count int64, sum float64) {
		var c0, c1 int64
		var s0, s1 float64
		for _, h := range before.Histograms {
			if h.Name == name {
				c0, s0 = h.Count, h.Sum
			}
		}
		for _, h := range after.Histograms {
			if h.Name == name {
				c1, s1 = h.Count, h.Sum
			}
		}
		return c1 - c0, s1 - s0
	}
	counter := func(name string) float64 {
		var v0, v1 int64
		for _, c := range before.Counters {
			if c.Name == name {
				v0 = c.Value
			}
		}
		for _, c := range after.Counters {
			if c.Name == name {
				v1 = c.Value
			}
		}
		return float64(v1 - v0)
	}
	// Default path: pass times are the change of measure's own pass
	// histograms around measure.Run (both snapshots, summed). Streamed
	// path: resolve and site passes are the harness's spans around
	// Stream.ResolveBatch / MeasureBatch; the inter-service and chain
	// passes inside Stream.Finish come from the same histograms.
	if spec.compact {
		m["measure.resolve_pass_s"] = tr.total("measure.ResolveBatch")
		m["measure.site_pass_s"] = tr.total("measure.MeasureBatch")
	} else {
		_, m["measure.resolve_pass_s"] = hist("measure_resolve_pass_seconds")
		_, m["measure.site_pass_s"] = hist("measure_site_pass_seconds")
	}
	_, m["measure.interservice_pass_s"] = hist("measure_interservice_pass_seconds")
	_, m["measure.chain_pass_s"] = hist("measure_chain_pass_seconds")
	for _, st := range []string{"dns", "ca", "cdn", "chain"} {
		n, sum := hist("measure_" + st + "_seconds")
		m["measure."+st+"_stage_count"] = float64(n)
		m["measure."+st+"_stage_us"] = 0
		if n > 0 {
			m["measure."+st+"_stage_us"] = sum / float64(n) * 1e6
		}
	}
	var sites, unchar, errs int
	var q, hits, dedup int64
	for _, sd := range []*analysis.SnapshotData{jo.run.Y2016, jo.run.Y2020} {
		r := sd.Results
		sites += len(r.Sites)
		for i := range r.Sites {
			if r.Sites[i].DNS.Class == core.ClassUnknown {
				unchar++
			}
		}
		errs += r.Diagnostics.TotalErrors()
		q += r.Diagnostics.Resolver.Queries
		hits += r.Diagnostics.Resolver.Hits
		dedup += r.Diagnostics.Resolver.Deduped
	}
	m["measure.sites"] = float64(sites)
	m["measure.uncharacterized_sites"] = float64(unchar)
	m["measure.stage_errors"] = float64(errs)
	m["resolver.queries"] = float64(q)
	m["resolver.exchanges"] = float64(q - hits)
	m["resolver.deduped"] = float64(dedup)
	if q > 0 {
		m["resolver.cache_hit_ratio"] = float64(hits) / float64(q)
	}
	m["conc.tasks"] = counter("conc_tasks_done_total")
	_, m["conc.task_run_s"] = hist("conc_task_run_seconds")
	_, m["conc.queue_wait_s"] = hist("conc_queue_wait_seconds")

	m["core.graph_build_s"] = tr.total("core.BuildGraph") + tr.total("core.BuildCompactGraph") + tr.total("core.Inflate")
	m["core.metrics_fill_s"] = tr.total("core.metrics_fill")
	m["core.mitigation_s"] = tr.total("analysis.mitigation")
	m["core.outage_sim_ms"] = tr.total("analysis.dyn_replay") * 1e3
	m["analysis.report_s"] = tr.total("analysis.report")
	if v := tr.total("analysis.Validate"); v > 0 {
		m["analysis.validation_s"] = v
	}
	m["analysis.casestudy_s"] = tr.total("casestudy")
}

// attributeMemory drops the run's parts one at a time, forcing a collection
// after each, and attributes the freed bytes (per site) to that part. The
// residue is what stays live, over the heap before the job, once every run
// reference is gone: process-global intern and memo tables. The parts and
// the residue sum to the heap this composition retains over the pre-job
// heap by construction; run.py checks that sum against the heap the
// untraced analysis.Execute run retains.
func attributeMemory(run *analysis.Run, scale int, baseHeap uint64, res *result) {
	perSite := func(b uint64) float64 { return float64(b) / float64(scale) }
	sds := []*analysis.SnapshotData{run.Y2016, run.Y2020}
	prev := liveHeap()
	drop := func(name string, f func()) {
		f()
		cur := liveHeap()
		freed := uint64(0)
		if prev > cur {
			freed = prev - cur
		}
		res.Metrics["mem."+name+"_bytes_per_site"] += perSite(freed)
		prev = cur
	}
	for _, sd := range sds {
		drop("world", func() { sd.World = nil })
		drop("results", func() { sd.Results = nil })
		drop("graph", func() { sd.Graph = nil })
		drop("compact", func() { sd.Compact = nil })
	}
	drop("universe", func() { run.Universe = nil; run.Y2016, run.Y2020 = nil, nil })
	residue := uint64(0)
	if prev > baseHeap {
		residue = prev - baseHeap
	}
	res.Metrics["mem.global_residue_bytes_per_site"] = perSite(residue)
	sum := res.Metrics["mem.global_residue_bytes_per_site"]
	for _, name := range []string{"world", "results", "graph", "compact", "universe"} {
		sum += res.Metrics["mem."+name+"_bytes_per_site"]
	}
	res.Metrics["mem.attributed_bytes_per_site"] = sum
}
