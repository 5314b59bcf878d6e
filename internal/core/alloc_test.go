package core

import (
	"runtime"
	"testing"

	"repro/internal/dist"
)

// Steady-state allocation pin for the warm release path (DESIGN.md §6).
// With the marginal cache warm, a batch release allocates only
// per-request bookkeeping (loss vector, release struct, noisy vector,
// per-request stream, cache-key strings, chunk noise buffer) — a small
// per-request constant, never anything per cell. The per-cell stream
// and noise allocations the batch samplers eliminated were ~4 allocs
// per cell (≈9,600 per op for this six-request workload); the bound
// below is two orders of magnitude under that, so any per-cell
// regression fails loudly.
const releaseBatchPerRequestAllocs = 25

func TestReleaseBatchWarmCacheAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	p := testPublisher(t, 99)
	attrs := workload1Attrs()
	var reqs []Request
	for _, eps := range []float64{1, 2} {
		reqs = append(reqs,
			Request{Attrs: attrs, Mechanism: MechLogLaplace, Alpha: 0.1, Eps: 2 * eps},
			Request{Attrs: attrs, Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: eps},
			Request{Attrs: attrs, Mechanism: MechSmoothLaplace, Alpha: 0.1, Eps: eps, Delta: 0.05},
		)
	}
	if _, err := p.ReleaseBatch(nil, reqs, dist.NewStreamFromSeed(1), nil); err != nil {
		t.Fatal(err) // warm the marginal cache
	}
	bound := float64(releaseBatchPerRequestAllocs * len(reqs))
	allocs := testing.AllocsPerRun(20, func() {
		rels, err := p.ReleaseBatch(nil, reqs, dist.NewStreamFromSeed(2), nil)
		if err != nil || len(rels) != len(reqs) {
			t.Fatal("bad batch")
		}
	})
	if allocs > bound {
		t.Fatalf("warm ReleaseBatch allocates %v per op for %d requests, documented bound is %v (per-cell allocation regressed?)",
			allocs, len(reqs), bound)
	}
}
