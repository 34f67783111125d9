package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// The read mix is depload's default: site 60 / providers 25 / snapshot 10 /
// incident 5. Writes are single-op POST /v1/delta edits.
var readMix = []struct {
	kind   string
	weight int
}{{"site", 60}, {"providers", 25}, {"snapshot", 10}, {"incident", 5}}

// endpoints are every read endpoint the per-layer serve.*_us metrics time,
// the mix's four plus the paged site listing.
var endpoints = []string{"site", "providers", "snapshot", "sites", "incident"}

// request is one generated API call and what a correct answer looks like.
type request struct {
	kind   string // an endpoints name or "delta"
	method string
	path   string
	body   []byte
	site   string // site-lookup target
	svc    string // provider-ranking service
}

// workingSet is the generator's input: site names and DNS providers drawn
// from the snapshot with the workload seed, and the snapshot's scale.
type workingSet struct {
	scale     int
	sites     []string
	providers []string
}

// generator draws requests with the workload seed. Reads follow the mix
// exactly in every block of 100 (a reshuffled pick table), so the share of
// expensive /incident reads, which sets the tail, is the same in every run;
// the seed picks the order and the arguments.
type generator struct {
	rng    *rand.Rand
	ws     workingSet
	table  []string
	next   int
	writes int
}

func newGenerator(seed int64, ws workingSet) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed)), ws: ws}
	for _, m := range readMix {
		for i := 0; i < m.weight; i++ {
			g.table = append(g.table, m.kind)
		}
	}
	g.next = len(g.table)
	return g
}

// read draws the next request of the mix.
func (g *generator) read() request {
	if g.next == len(g.table) {
		g.rng.Shuffle(len(g.table), func(i, j int) { g.table[i], g.table[j] = g.table[j], g.table[i] })
		g.next = 0
	}
	g.next++
	return g.readOf(g.table[g.next-1])
}

// readOf builds a request of the given endpoint kind.
func (g *generator) readOf(kind string) request {
	r := request{kind: kind, method: http.MethodGet}
	switch kind {
	case "site":
		r.site = g.ws.sites[g.rng.Intn(len(g.ws.sites))]
		r.path = "/v1/sites/" + r.site
	case "providers":
		r.svc = []string{"dns", "cdn", "ca"}[g.rng.Intn(3)]
		metric := []string{"cp", "ip"}[g.rng.Intn(2)]
		r.path = "/v1/providers?service=" + r.svc + "&metric=" + metric + "&top=10"
	case "snapshot":
		r.path = "/v1/snapshot"
	case "sites":
		r.path = fmt.Sprintf("/v1/sites?offset=%d&limit=100", g.rng.Intn(g.ws.scale))
	case "incident":
		r.path = "/incident?preset=dyn-replay"
	}
	return r
}

// edit draws a single-op edit's target: a working-set site and one of the
// snapshot's top DNS providers, taken in rank order so every run edits
// toward the same mix of large and small providers.
func (g *generator) edit() (site, provider string) {
	site = g.ws.sites[g.rng.Intn(len(g.ws.sites))]
	provider = g.ws.providers[g.writes%len(g.ws.providers)]
	g.writes++
	return site, provider
}

// write draws a POST /v1/delta request that points the edited site's DNS
// at the drawn provider.
func (g *generator) write() request {
	site, prov := g.edit()
	body, _ := json.Marshal(map[string]any{
		"snapshot": "2020",
		"delta": map[string]any{"ops": []any{map[string]any{
			"op": "site-dep", "name": site, "service": "dns",
			"dep": map[string]any{"class": "single-third", "providers": []string{prov}},
		}}},
	})
	return request{kind: "delta", method: http.MethodPost, path: "/v1/delta", body: body}
}

// verify checks a response: status 200 and a body that decodes to the
// expected shape for the request. It returns the delta version for writes.
func (r request) verify(status int, body []byte, scale int) (version uint64, err error) {
	if status != http.StatusOK {
		return 0, fmt.Errorf("%s %s: status %d: %.200s", r.method, r.path, status, body)
	}
	var v struct {
		Site       string            `json:"site"`
		Rank       int               `json:"rank"`
		Services   []json.RawMessage `json:"services"`
		Service    string            `json:"service"`
		Providers  []json.RawMessage `json:"providers"`
		Ready      bool              `json:"ready"`
		Version    uint64            `json:"version"`
		Scale      int               `json:"scale"`
		Total      int               `json:"total"`
		Offset     int               `json:"offset"`
		Sites      []string          `json:"sites"`
		Scenario   string            `json:"scenario"`
		TotalSites int               `json:"total_sites"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, fmt.Errorf("%s: undecodable body: %v", r.path, err)
	}
	ok := false
	switch r.kind {
	case "site":
		ok = v.Site == r.site && v.Rank > 0 && len(v.Services) > 0
	case "providers":
		ok = v.Service == r.svc && len(v.Providers) > 0 && len(v.Providers) <= 10 && v.Total >= len(v.Providers)
	case "snapshot":
		ok = v.Ready && v.Version >= 1 && v.Scale == scale
	case "sites":
		want := v.Total - v.Offset
		if want > 100 {
			want = 100
		}
		ok = v.Total == scale && len(v.Sites) == want
	case "incident":
		ok = v.Scenario == "dyn-replay" && v.TotalSites == scale
	case "delta":
		ok = v.Version >= 2
	}
	if !ok {
		return 0, fmt.Errorf("%s: unexpected body shape: %.200s", r.path, body)
	}
	return v.Version, nil
}

// inProcess serves requests through a mux (serve.Register on a Manager)
// with a recorder: handler, encoding and response writing, no network.
type inProcess struct {
	mux   http.Handler
	scale int
}

func (p inProcess) do(r request) (time.Duration, int, uint64, error) {
	req := httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body))
	rec := httptest.NewRecorder()
	start := time.Now()
	p.mux.ServeHTTP(rec, req)
	d := time.Since(start)
	v, err := r.verify(rec.Code, rec.Body.Bytes(), p.scale)
	return d, rec.Body.Len(), v, err
}

// fetchWorkingSet draws the generator's inputs through the API itself.
func fetchWorkingSet(get func(path string) ([]byte, error), scale int, seed int64) (workingSet, error) {
	ws := workingSet{scale: scale}
	body, err := get("/v1/sites?limit=10000")
	if err != nil {
		return ws, err
	}
	var sites struct {
		Sites []string `json:"sites"`
	}
	if err := json.Unmarshal(body, &sites); err != nil || len(sites.Sites) == 0 {
		return ws, fmt.Errorf("site listing: %v (%d sites)", err, len(sites.Sites))
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, i := range rng.Perm(len(sites.Sites))[:min(500, len(sites.Sites))] {
		ws.sites = append(ws.sites, sites.Sites[i])
	}
	body, err = get("/v1/providers?service=dns&top=20")
	if err != nil {
		return ws, err
	}
	var provs struct {
		Providers []struct {
			Name string `json:"name"`
		} `json:"providers"`
	}
	if err := json.Unmarshal(body, &provs); err != nil || len(provs.Providers) == 0 {
		return ws, fmt.Errorf("provider ranking: %v", err)
	}
	for _, p := range provs.Providers {
		ws.providers = append(ws.providers, p.Name)
	}
	return ws, nil
}

func (p inProcess) get(path string) ([]byte, error) {
	rec := httptest.NewRecorder()
	p.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, rec.Code)
	}
	return rec.Body.Bytes(), nil
}

// The in-process phase pauses for roundGap before every edit and every
// readRound reads. That spreads the phase over a few seconds, so a burst of
// outside interference lands on a few of its samples rather than on all.
const (
	roundGap  = 25 * time.Millisecond
	readRound = 32
)

// inProcessPhase sends nReads mix reads then nWrites edits sequentially
// through the mux, checks every answer, and records the read and write
// latency quantiles, per-endpoint means, response bytes and CPU per read.
func inProcessPhase(p inProcess, g *generator, nReads, nWrites int, res *result) {
	var reads, writes []time.Duration
	perKind := make(map[string][]time.Duration)
	var bytesOut int
	// The phase starts from a collected heap whose free pages went back to
	// the OS. Garbage left by the job then cannot land a collection inside
	// the timings, and every edit allocates its tens of megabytes from
	// fresh pages: from a plain collection, how many edits reuse the pages
	// the job left resident varies from run to run, and their latency with
	// it. The reads allocate too little to need a reset of their own.
	debug.FreeOSMemory()
	cpu0 := cpuTime()
	for i := 0; i < nReads; i++ {
		if i%readRound == 0 {
			time.Sleep(roundGap)
		}
		r := g.read()
		d, n, _, err := p.do(r)
		res.check(err == nil, "%v", err)
		reads = append(reads, d)
		perKind[r.kind] = append(perKind[r.kind], d)
		bytesOut += n
	}
	cpuPerRead := (cpuTime() - cpu0) / time.Duration(max(nReads, 1))
	var last uint64
	for i := 0; i < nWrites; i++ {
		time.Sleep(roundGap)
		r := g.write()
		d, _, v, err := p.do(r)
		if err == nil && last != 0 && v != last+1 {
			err = fmt.Errorf("delta version %d after %d, want +1", v, last)
		}
		last = v
		res.check(err == nil, "%v", err)
		writes = append(writes, d)
	}
	readLatencies(res.Metrics, reads)
	res.Metrics["write_p50_ms"] = ms(quantile(writes, 0.50))
	res.Metrics["gen.write_p90_ms"] = ms(quantile(writes, 0.90))
	res.Metrics["gen.reads"] = float64(len(reads))
	res.Metrics["gen.writes"] = float64(len(writes))
	res.Metrics["gen.sent"] = float64(len(reads) + len(writes))
	for _, k := range endpoints {
		if ds := perKind[k]; len(ds) > 0 {
			res.Metrics["serve."+k+"_us"] = us(mean(ds))
		}
	}
	res.Metrics["serve.delta_apply_ms"] = ms(mean(writes))
	res.Metrics["serve.response_bytes"] = float64(bytesOut) / float64(max(nReads, 1))
	res.Metrics["serve.cpu_us_per_req"] = us(cpuPerRead)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readWindow is the number of reads per latency window: the p99 of a
// window has five samples above it.
const readWindow = 500

// windowQuantile splits ds into consecutive windows of n samples, takes
// each window's q-quantile, and returns the r-quantile of those. A run on
// a shared 2-core machine sees bursts of interference from outside the
// benchmark; a window hit by one reads high, and the r-quantile across
// windows (the median for p50, the lower quartile for the tail) keeps one
// burst from moving the run's figure. With fewer than two windows it is
// the plain q-quantile.
func windowQuantile(ds []time.Duration, n int, q, r float64) time.Duration {
	if len(ds) < 2*n {
		return quantile(ds, q)
	}
	return quantile(windowQuantiles(ds, n, q), r)
}

// windowQuantiles is the q-quantile of each consecutive window of n
// samples in ds.
func windowQuantiles(ds []time.Duration, n int, q float64) []time.Duration {
	var per []time.Duration
	for lo := 0; lo+n <= len(ds); lo += n {
		per = append(per, quantile(ds[lo:lo+n], q))
	}
	return per
}

// readLatencies records the read figures of one phase: the windowed median
// and tail, and the pooled p99 over every read of the phase.
func readLatencies(m map[string]float64, reads []time.Duration) {
	m["read_p50_ms"] = ms(windowQuantile(reads, readWindow, 0.50, 0.50))
	m["read_p99_ms"] = ms(windowQuantile(reads, readWindow, 0.99, 0.25))
	m["gen.read_pooled_p99_ms"] = ms(quantile(reads, 0.99))
}

// quantile is the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t / time.Duration(len(ds))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
