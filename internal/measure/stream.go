package measure

import (
	"context"
	"fmt"
	"sort"
	"time"

	"depscope/internal/conc"
	"depscope/internal/core"
	"depscope/internal/telemetry"
)

// Stream is the measurement pipeline, driven over ranked site ranges so
// that worlds whose landing pages are materialized and released one batch
// at a time can be measured. The driving sequence is
//
//	st, _ := NewStream(sites, cfg)
//	for each batch: st.ResolveBatch(ctx, lo, hi)   // zones must exist
//	st.Seal()                                      // concentration signal
//	for each batch: st.MeasureBatch(ctx, lo, hi)   // pages must exist
//	res, _ := st.Finish(ctx)
//
// Run is this sequence with one batch covering every site, and the Results
// do not depend on the batching (the stream and ecosystem invariants tests
// pin this, worker counts included). The split exists because of two global
// signals: the §3.1 concentration signal needs every site's NS set before
// any site can be classified (hence the Seal barrier between the resolve
// and measure sweeps), and the chain vendor population is only complete
// after the last batch (hence vendor hosts are gathered per batch, while
// the batch's pages are still live, and resolved in Finish).
//
// Checkpointing works at any batching: ResolveBatch reuses checkpointed NS
// sets, Seal records the pass-1 outcome and emits the first checkpoint,
// MeasureBatch reuses checkpointed site results and emits every
// Config.CheckpointEvery completions, and Finish emits the final one.
type Stream struct {
	m      *measurer
	sites  []string
	nsSets [][]string
	res    *Results
	// ck records and replays checkpointed progress; nil when the run is
	// not checkpointed.
	ck *ckptRun
	// err is Seal's checkpoint-emission failure, reported by the next
	// MeasureBatch or Finish (Seal itself returns nothing).
	err error

	sealed   bool
	finished bool

	// hostCand[i] holds site i's deduplicated (registrable domain, host)
	// resource pairs, captured during the site's batch. Finish filters them
	// through the complete vendor population (see chainPass). Nil unless
	// chains are enabled.
	hostCand [][]rdHost
}

type rdHost struct{ rd, host string }

// NewStream validates cfg and prepares a stream over the full ranked site
// list (known up front; only the per-site artifacts stream). A configured
// prior checkpoint is validated here and its resolver cache seeded back.
func NewStream(sites []string, cfg Config) (*Stream, error) {
	if cfg.Resolver == nil {
		return nil, fmt.Errorf("measure: Config.Resolver is required")
	}
	if cfg.ConcentrationThreshold == 0 {
		cfg.ConcentrationThreshold = 50
	}
	ck, err := newCkptRun(&cfg, len(sites))
	if err != nil {
		return nil, err
	}
	m := &measurer{
		cfg:    cfg,
		stages: defaultStages(),
		diag:   newDiagCollector(),
	}
	if m.chainEnabled() {
		m.stages = append(m.stages, chainStage{})
	}
	m.initTelemetry()
	return &Stream{m: m, sites: sites, nsSets: make([][]string, len(sites)), ck: ck}, nil
}

// ResolveBatch runs the pass-1 NS resolution for sites [lo, hi). The
// sites' zones must be materialized; pages are not needed. Under
// conc.Collect an unresolvable site keeps a nil NS set — the DNS stage then
// reports it uncharacterized — and the error is recorded instead of
// aborting the run.
func (s *Stream) ResolveBatch(ctx context.Context, lo, hi int) error {
	if s.sealed {
		panic("measure: Stream.ResolveBatch after Seal")
	}
	m := s.m
	defer telemetry.StartSpan("measure.resolve_pass").End()
	return conc.ForEach(ctx, hi-lo, m.cfg.Workers, conc.FailFast, func(ctx context.Context, j int) error {
		i := lo + j
		if s.ck != nil {
			if ns, ok := s.ck.priorNS(s.sites[i]); ok {
				s.nsSets[i] = ns
				ckptNSReused.Inc()
				return nil
			}
		}
		start := time.Now()
		ns, err := m.cfg.Resolver.NS(ctx, s.sites[i])
		m.resolveHist.ObserveDuration(time.Since(start))
		m.diag.observe(stageResolve, err)
		if err != nil {
			if m.cfg.ErrorPolicy == conc.Collect {
				m.diag.record(s.sites[i], stageResolve, err)
				s.nsSets[i] = nil
				return nil
			}
			return fmt.Errorf("NS(%s): %w", s.sites[i], err)
		}
		sort.Strings(ns)
		s.nsSets[i] = ns
		return nil
	})
}

// Seal closes pass 1: the concentration signal is computed over the full
// population and the CDN map is compiled — deferred to here because
// per-site CNAME→CDN entries (private CDNs) appear while site zones
// materialize, and Config.CDNMap may alias that live map. A checkpointed
// stream records every site's NS set and emits the pass-1 checkpoint here;
// an emission error surfaces from the next MeasureBatch or Finish.
func (s *Stream) Seal() {
	if s.sealed {
		panic("measure: Stream.Seal called twice")
	}
	s.sealed = true
	s.m.cdn = s.m.cfg.CDNMap.compile()
	s.res = &Results{
		NSConcentration: concentration(s.nsSets),
		CDNToDNS:        make(map[string]ProviderDep),
		CAToDNS:         make(map[string]ProviderDep),
		CAToCDN:         make(map[string]ProviderDep),
	}
	s.res.Sites = make([]SiteResult, len(s.sites))
	if s.m.chainEnabled() {
		s.hostCand = make([][]rdHost, len(s.sites))
	}
	if s.ck != nil {
		for i, site := range s.sites {
			s.ck.recordNS(site, s.nsSets[i])
		}
		s.err = s.ck.emitNow()
	}
}

// MeasureBatch runs the pass-2 per-site classification for sites [lo, hi),
// whose pages must currently be materialized. Work within the batch fans
// out index-placed over the worker pool, so results are independent of the
// worker count. For chain runs it then captures the batch's vendor-host
// candidates sequentially, before the caller releases the pages.
func (s *Stream) MeasureBatch(ctx context.Context, lo, hi int) error {
	if !s.sealed {
		panic("measure: Stream.MeasureBatch before Seal")
	}
	if s.err != nil {
		return s.err
	}
	m := s.m
	sitePass := telemetry.StartSpan("measure.site_pass")
	err := conc.ForEach(ctx, hi-lo, m.cfg.Workers, conc.FailFast, func(ctx context.Context, j int) error {
		i := lo + j
		site, result := s.sites[i], &s.res.Sites[i]
		if s.ck != nil {
			if prior := s.ck.priorResult(site); prior != nil {
				// Reuse the checkpointed result, re-anchoring identity and
				// rank in case the edited universe reordered the list.
				*result = *prior
				result.Site, result.Rank = site, i+1
				ckptReused.Inc()
				return s.ck.siteDone(site, result)
			}
		}
		sc := &SiteContext{
			Site:   site,
			Rank:   i + 1,
			NS:     s.nsSets[i],
			Conc:   s.res.NSConcentration,
			Result: result,
			m:      m,
		}
		result.Site, result.Rank = sc.Site, sc.Rank
		if err := m.dispatch(ctx, sc); err != nil {
			return err
		}
		if s.ck != nil {
			return s.ck.siteDone(site, result)
		}
		return nil
	})
	sitePass.End()
	if err != nil {
		return err
	}
	if s.hostCand != nil {
		s.captureHosts(lo, hi)
	}
	return nil
}

// Finish runs the cross-site accounting and the pass-3/pass-4
// inter-service measurements, emits the final checkpoint, and returns the
// completed Results. Pages may already be fully released: pass 3 needs only
// the per-site aggregates and the resident zones, and pass 4 replays the
// vendor-host candidates captured batch by batch.
func (s *Stream) Finish(ctx context.Context) (*Results, error) {
	if !s.sealed {
		panic("measure: Stream.Finish before Seal")
	}
	if s.finished {
		panic("measure: Stream.Finish called twice")
	}
	s.finished = true
	if s.err != nil {
		return nil, s.err
	}
	m := s.m
	res := s.res

	// Pair accounting over distinct (site, nameserver) pairs.
	res.EvidenceCounts = make(map[string]int)
	for i := range res.Sites {
		if res.Sites[i].DNS.Class == core.ClassUnknown {
			uncharacterizedSites.Inc()
		}
		for _, pair := range res.Sites[i].DNS.Pairs {
			res.PairStats.Total++
			switch pair.Class {
			case Private:
				res.PairStats.Private++
			case Third:
				res.PairStats.Third++
			default:
				res.PairStats.Uncharacterized++
			}
			if pair.Evidence != "" {
				res.EvidenceCounts[pair.Evidence]++
			}
		}
	}

	interPass := telemetry.StartSpan("measure.interservice_pass")
	err := m.interService(ctx, res)
	interPass.End()
	if err != nil {
		return nil, err
	}

	if m.chainEnabled() {
		chainPass := telemetry.StartSpan("measure.chain_pass")
		err = s.chainPass(ctx, res)
		chainPass.End()
		if err != nil {
			return nil, err
		}
	}
	if s.ck != nil {
		// Final snapshot: the complete run, usable later as the baseline for
		// an edited-universe incremental re-measurement.
		if err := s.ck.emitNow(); err != nil {
			return nil, err
		}
	}

	res.Diagnostics = m.diag.snapshot(m.stageOrder(), m.cfg.Resolver.Stats())
	res.Telemetry = telemetry.Default.Snapshot()
	return res, nil
}
