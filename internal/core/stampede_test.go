package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/lodes"
	"repro/internal/table"
)

// TestMarginalCacheStampedeSingleScan is the cache-stampede contract:
// many goroutines hitting one uncached marginal at once must trigger
// exactly one underlying table scan — the first requester leads, every
// other follows the in-flight result — and, given the same noise
// stream, produce bit-identical releases. Run under -race in CI, this
// also proves the sharded copy-on-write read path publishes entries
// safely.
func TestMarginalCacheStampedeSingleScan(t *testing.T) {
	const goroutines = 48 // ≥ 32: well past any shard or scheduler width

	p := testPublisher(t, 41)
	req := Request{Attrs: workload1Attrs(), Mechanism: MechSmoothLaplace, Alpha: 0.1, Eps: 2, Delta: 0.05}

	start := make(chan struct{})
	rels := make([]*Release, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			// Same seed everywhere: identical requests must yield identical
			// releases no matter who led the scan.
			rels[g], errs[g] = p.ReleaseMarginal(nil, req, dist.NewStreamFromSeed(7), nil)
		}(g)
	}
	close(start)
	wg.Wait()

	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	stats := p.MarginalCacheStats()
	if stats.Misses != 1 {
		t.Fatalf("%d concurrent misses ran %d table scans, want exactly 1 (stampede)", goroutines, stats.Misses)
	}
	if stats.Hits != goroutines-1 {
		t.Errorf("hits = %d, want %d (every follower skipped the scan)", stats.Hits, goroutines-1)
	}
	for g := 1; g < goroutines; g++ {
		if rels[g].Truth != rels[0].Truth {
			t.Fatalf("goroutine %d received a different truth object: the scan result was not shared", g)
		}
		for i := range rels[g].Noisy {
			if rels[g].Noisy[i] != rels[0].Noisy[i] {
				t.Fatalf("goroutine %d cell %d: %v != %v (releases not identical)", g, i, rels[g].Noisy[i], rels[0].Noisy[i])
			}
		}
	}
}

// TestScanPanicReleasesFollowers pins the singleflight's panic safety: a
// leader whose compute panics must unregister the flight and release
// followers with an error instead of wedging the key forever.
func TestScanPanicReleasesFollowers(t *testing.T) {
	p := testPublisher(t, 44)
	key := exactKey(workload1Attrs())

	follower := make(chan error, 1)
	inScan := make(chan struct{})
	go func() {
		defer func() { recover() }()
		p.snap.Load().cache.getOrCompute(key, func() (*marginalEntry, error) {
			close(inScan)
			panic("synthetic scan failure")
		})
	}()
	go func() {
		<-inScan
		_, _, err := p.snap.Load().cache.getOrCompute(key, func() (*marginalEntry, error) {
			// By the time a second compute can start, the flight table must
			// be clean again; computing normally proves the key recovered.
			return computeEntryFor(p.snap.Load(), workload1Attrs())
		})
		follower <- err
	}()
	// The follower either joined the doomed flight (errScanAborted) or
	// arrived after cleanup and ran its own successful scan; both are
	// correct — hanging forever is the bug this test exists to catch.
	err := <-follower
	if err != nil && !errors.Is(err, errScanAborted) {
		t.Fatalf("follower error = %v, want nil or errScanAborted", err)
	}
	if _, err := p.Marginal(workload1Attrs()); err != nil {
		t.Fatalf("key did not recover after a panicking scan: %v", err)
	}
}

// TestMarginalCacheStampedeMixedOrders: a stampede that names the same
// attribute set in two different orders still costs one scan — the
// non-canonical requests follow the canonical flight and remap its
// cells.
func TestMarginalCacheStampedeMixedOrders(t *testing.T) {
	const goroutines = 32

	p := testPublisher(t, 42)
	orders := [][]string{
		{lodes.AttrPlace, lodes.AttrIndustry, lodes.AttrOwnership},
		{lodes.AttrOwnership, lodes.AttrIndustry, lodes.AttrPlace},
	}

	start := make(chan struct{})
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			_, errs[g] = p.Marginal(orders[g%2])
		}(g)
	}
	close(start)
	wg.Wait()

	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if stats := p.MarginalCacheStats(); stats.Misses != 1 {
		t.Fatalf("mixed-order stampede ran %d table scans, want exactly 1", stats.Misses)
	}
	// Both orders must agree cell-for-cell after the remap.
	a, err := p.Marginal(orders[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Marginal(orders[1])
	if err != nil {
		t.Fatal(err)
	}
	if a.Total() != b.Total() {
		t.Fatalf("totals differ across orders: %d vs %d", a.Total(), b.Total())
	}
}

// computeEntryFor compiles the attribute list and runs the scan — the
// request-order form of epochSnapshot.computeEntry, for tests that
// drive the cache internals directly.
func computeEntryFor(sn *epochSnapshot, attrs []string) (*marginalEntry, error) {
	q, err := table.NewQuery(sn.data.Schema(), attrs...)
	if err != nil {
		return nil, err
	}
	return sn.computeEntry(q), nil
}
