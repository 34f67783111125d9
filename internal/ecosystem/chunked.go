package ecosystem

import (
	"math/rand"

	"depscope/internal/certs"
	"depscope/internal/chain"
	"depscope/internal/dnszone"
	"depscope/internal/webpage"
)

// Chunked builds a World in site batches, for runs whose landing pages do
// not fit in memory at once; Materialize is its one-batch case. Zones,
// certificates and the CNAME→CDN map are fully resident — the measurement's
// inter-service passes and the validation baselines resolve against them
// after the site sweep — but a streamed run keeps pages only between
// MaterializePages and ReleasePages, one batch at a time. Each site's
// artifacts are a pure function of the universe and the site, so batch
// boundaries cannot change them; the invariants tests pin this via
// SiteFingerprints.
//
// The intended driving sequence (see analysis.Execute's compact path):
//
//	c := NewChunked(u, snap)
//	c.EnableChains(cfg)                  // optional, before any AddSites
//	for each batch: c.AddSites(lo, hi)   // zones + certs + CNAME entries
//	... seal the measurement ...
//	for each batch:
//	    c.MaterializePages(lo, hi)       // pages (+ chain growth)
//	    ... measure the batch ...
//	    c.ReleasePages(lo, hi)
type Chunked struct {
	u       *Universe
	m       *materializer
	pending []*Site // existing sites of the snapshot, rank order

	chainCfg     *chain.Config
	chainVendors []chainVendor
}

// NewChunked builds the base world — provider and external zones — and the
// ranked list of sites to stream. No site data is materialized yet.
func NewChunked(u *Universe, snap Snapshot) *Chunked {
	w := &World{
		Snapshot:   snap,
		Scale:      u.Scale,
		Zones:      dnszone.NewStore(),
		Certs:      certs.NewStore(),
		Pages:      make(map[string]*webpage.Page),
		CNAMEToCDN: make(map[string]string),
	}
	c := &Chunked{u: u, m: &materializer{u: u, w: w, snap: snap}}
	c.m.providerZones()
	c.m.externalZones()
	for _, site := range u.List(snap) {
		if site.Snap[snap].Exists {
			c.pending = append(c.pending, site)
		}
	}
	return c
}

// World returns the (incrementally filled) world. Sites appear in it as
// AddSites materializes their zones.
func (c *Chunked) World() *World { return c.m.w }

// Len returns the number of sites the stream will materialize.
func (c *Chunked) Len() int { return len(c.pending) }

// SiteNames returns the full ranked site-name list without materializing
// anything — the measurement stream needs it up front to size its result
// table.
func (c *Chunked) SiteNames() []string {
	names := make([]string, len(c.pending))
	for i, s := range c.pending {
		names[i] = s.Domain
	}
	return names
}

// EnableChains switches on chain materialization: the vendor universe's
// zones are added to the world now, and MaterializePages grows per-page
// chains with the same per-site seeded RNG as MaterializeChains — chain
// content is a pure function of (universe, cfg, site), so batch boundaries
// cannot perturb it. Must be called before the first MaterializePages; a
// disabled cfg is a no-op, matching MaterializeChains.
func (c *Chunked) EnableChains(cfg chain.Config) {
	if !cfg.Enabled() {
		return
	}
	c.chainCfg = &cfg
	c.chainVendors = chainVendorUniverse(cfg.Vendors)
	for i := range c.chainVendors {
		c.m.chainVendorZone(&c.chainVendors[i])
	}
}

// AddSites materializes zones, certificates and CNAME→CDN entries for the
// ranked site range [lo, hi) and appends the names to World.Sites. Ranges
// must be fed in order, exactly once, starting at 0.
func (c *Chunked) AddSites(lo, hi int) {
	if lo != len(c.m.w.Sites) {
		panic("ecosystem: Chunked.AddSites ranges must be contiguous from 0")
	}
	for _, s := range c.pending[lo:hi] {
		c.m.siteZone(s)
		c.m.w.Sites = append(c.m.w.Sites, s.Domain)
	}
}

// MaterializePages materializes landing pages (plus chain growth when
// enabled) for the site range [lo, hi). The range must already have been
// through AddSites.
func (c *Chunked) MaterializePages(lo, hi int) {
	if hi > len(c.m.w.Sites) {
		panic("ecosystem: Chunked.MaterializePages before AddSites")
	}
	for _, s := range c.pending[lo:hi] {
		c.m.sitePage(s)
		if c.chainCfg != nil {
			page := c.m.w.Pages[s.Domain]
			rng := rand.New(rand.NewSource(chainSeed(c.chainCfg.Seed, s.Domain)))
			growChains(page, c.chainVendors, *c.chainCfg, rng)
		}
	}
}

// ReleasePages drops the landing pages of the site range [lo, hi) so the
// batch's page memory can be collected.
func (c *Chunked) ReleasePages(lo, hi int) {
	for _, s := range c.pending[lo:hi] {
		delete(c.m.w.Pages, s.Domain)
	}
}
