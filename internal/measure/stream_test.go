package measure

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"depscope/internal/chain"
	"depscope/internal/ecosystem"
)

// streamView extends the pinned measurement view with the chain arrangement
// maps: the streaming path must reproduce the whole of Run's output,
// including pass 4, not just the pinned subset.
type streamView struct {
	pinnedView
	ResourceToDNS map[string]ProviderDep
	ResourceToCDN map[string]ProviderDep
}

func streamHash(t *testing.T, res *Results) string {
	t.Helper()
	view := streamView{
		pinnedView: pinnedView{
			Sites:           res.Sites,
			NSConcentration: res.NSConcentration,
			PairStats:       res.PairStats,
			EvidenceCounts:  res.EvidenceCounts,
			CDNToDNS:        res.CDNToDNS,
			CAToDNS:         res.CAToDNS,
			CAToCDN:         res.CAToCDN,
		},
		ResourceToDNS: res.ResourceToDNS,
		ResourceToCDN: res.ResourceToCDN,
	}
	b, err := json.Marshal(view)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// driveStream runs the full chunked pipeline — zones per batch, seal, pages
// per batch with release — against a streaming universe materialization.
func driveStream(t *testing.T, u *ecosystem.Universe, snap ecosystem.Snapshot,
	chains *chain.Config, workers, batch int) *Results {
	t.Helper()
	res, err := runStream(u, snap, chains, workers, batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runStream is driveStream with the error returned instead of fatal, and a
// hook to adjust the Config (checkpointing) before the stream starts.
func runStream(u *ecosystem.Universe, snap ecosystem.Snapshot, chains *chain.Config,
	workers, batch int, adjust func(*Config)) (*Results, error) {
	c := ecosystem.NewChunked(u, snap)
	if chains != nil {
		c.EnableChains(*chains)
	}
	w := c.World()
	cfg := Config{
		Resolver: w.NewResolver(),
		Certs:    w.Certs,
		Pages:    w,
		CDNMap:   CDNMap(w.CNAMEToCDN),
		Workers:  workers,
		Chains:   chains,
	}
	if adjust != nil {
		adjust(&cfg)
	}
	st, err := NewStream(c.SiteNames(), cfg)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	n := c.Len()
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		c.AddSites(lo, hi)
		if err := st.ResolveBatch(ctx, lo, hi); err != nil {
			return nil, err
		}
	}
	st.Seal()
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		c.MaterializePages(lo, hi)
		if err := st.MeasureBatch(ctx, lo, hi); err != nil {
			return nil, err
		}
		c.ReleasePages(lo, hi)
	}
	if len(w.Pages) != 0 {
		return nil, fmt.Errorf("stream left %d pages resident", len(w.Pages))
	}
	return st.Finish(ctx)
}

// TestStreamMatchesRun is the streaming pinning property: batching the
// materialization and measurement — with pages released after each batch —
// produces the byte-identical measurement output of the monolithic
// Materialize + Run, with and without chains, across awkward batch sizes.
func TestStreamMatchesRun(t *testing.T) {
	cfg := chain.Default()
	for _, tc := range []struct {
		name   string
		chains *chain.Config
	}{{"plain", nil}, {"chains", &cfg}} {
		t.Run(tc.name, func(t *testing.T) {
			u, err := ecosystem.Generate(ecosystem.Options{Scale: 300, Seed: 2020})
			if err != nil {
				t.Fatal(err)
			}
			w := ecosystem.Materialize(u, ecosystem.Y2020)
			if tc.chains != nil {
				ecosystem.MaterializeChains(u, w, *tc.chains)
			}
			mono, err := Run(context.Background(), w.Sites, Config{
				Resolver: w.NewResolver(),
				Certs:    w.Certs,
				Pages:    w,
				CDNMap:   CDNMap(w.CNAMEToCDN),
				Workers:  4,
				Chains:   tc.chains,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := streamHash(t, mono)
			for _, batch := range []int{1000, 64, 37} {
				res := driveStream(t, u, ecosystem.Y2020, tc.chains, 4, batch)
				if got := streamHash(t, res); got != want {
					t.Errorf("batch %d: stream hash %s != monolithic %s", batch, got, want)
				}
			}
		})
	}
}

// TestStreamWorkerDeterminism pins worker-count independence on the
// streaming path, mirroring the Run determinism guarantee.
func TestStreamWorkerDeterminism(t *testing.T) {
	u, err := ecosystem.Generate(ecosystem.Options{Scale: 250, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := chain.Default()
	var want string
	for i, workers := range []int{1, 4, 13} {
		res := driveStream(t, u, ecosystem.Y2020, &cfg, workers, 50)
		got := streamHash(t, res)
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("workers=%d: hash %s != workers=1 hash %s", workers, got, want)
		}
	}
}

// TestStreamCheckpointResumeMatchesRun is the streamed checkpoint pin: a
// stream driven in several batches, interrupted through its checkpoint
// callback in the middle of pass 2 and resumed (at a different batching)
// from its last checkpoint, yields Results byte-identical to an
// uninterrupted one-batch Run.
func TestStreamCheckpointResumeMatchesRun(t *testing.T) {
	const scale, seed, batch = 300, 2020, 64
	chains := chain.Default()
	u, err := ecosystem.Generate(ecosystem.Options{Scale: scale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	w := ecosystem.Materialize(u, ecosystem.Y2020)
	ecosystem.MaterializeChains(u, w, chains)
	ref, err := Run(context.Background(), w.Sites, Config{
		Resolver: w.NewResolver(),
		Certs:    w.Certs,
		Pages:    w,
		CDNMap:   CDNMap(w.CNAMEToCDN),
		Workers:  4,
		Chains:   &chains,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := streamHash(t, ref)

	// Emission 1 is Seal's pass-1 checkpoint; emissions 2-4 follow every
	// 25 site completions, so the abort lands in the second batch.
	var captured *Checkpoint
	emissions := 0
	_, err = runStream(u, ecosystem.Y2020, &chains, 4, batch, func(c *Config) {
		c.CheckpointLabel = "2020"
		c.CheckpointEvery = 25
		c.OnCheckpoint = func(cp *Checkpoint) error {
			emissions++
			captured = cp
			if emissions >= 4 {
				return errInterrupted
			}
			return nil
		}
	})
	if !errors.Is(err, errInterrupted) {
		t.Fatalf("interrupted stream error = %v, want %v", err, errInterrupted)
	}
	done := 0
	for _, sc := range captured.Sites {
		if sc.Done {
			done++
		}
	}
	n := len(w.Sites)
	if done <= batch || done >= n {
		t.Fatalf("checkpoint has %d done sites, want more than one batch (%d) and fewer than %d",
			done, batch, n)
	}
	if len(captured.Sites) != n {
		t.Fatalf("checkpoint records %d sites, want every site's NS set (%d)", len(captured.Sites), n)
	}

	reusedBefore, nsBefore := ckptReused.Value(), ckptNSReused.Value()
	res, err := runStream(u, ecosystem.Y2020, &chains, 4, 37, func(c *Config) {
		c.CheckpointLabel = "2020"
		c.Checkpoint = captured
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ckptReused.Value() - reusedBefore; got != int64(done) {
		t.Errorf("resumed stream reused %d checkpointed sites, want %d", got, done)
	}
	if got := ckptNSReused.Value() - nsBefore; got != int64(n) {
		t.Errorf("resumed stream reused %d NS sets, want %d", got, n)
	}
	if got := streamHash(t, res); got != want {
		t.Fatalf("resumed stream hash %s, want uninterrupted Run %s", got, want)
	}
}
