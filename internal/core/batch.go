package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/privacy"
)

// ReleaseBatch answers many release requests as one batch: the missing
// marginals are computed in a single sharded pass over the table, the
// per-request noise is drawn in parallel, and the accountant a is
// charged atomically — either the whole batch fits in the remaining
// budget or nothing is spent. A batch whose summed loss exceeds the
// remaining budget is rejected before any scan or noise is paid for,
// with ErrBudgetExhausted in the error chain. A nil accountant releases
// unaccounted. The whole batch is one charge, so it journals as one
// spend record carrying tag (stamped with the pinned epoch; see
// ReleaseMarginal).
//
// Determinism: request i draws its noise from s.SplitIndex("batch", i),
// so the result is bit-identical to calling
//
//	ReleaseMarginal(nil, reqs[i], s.SplitIndex("batch", i), nil)
//
// for each request in order, regardless of scheduling (both paths fold
// the pinned epoch into the derivation — see epochStream — so the
// equivalence is per-epoch, and the batch pins exactly one). Releases
// are returned positionally aligned with the requests.
func (p *Publisher) ReleaseBatch(a *privacy.Accountant, reqs []Request, s *dist.Stream, tag *privacy.SpendTag) ([]*Release, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	// Pin the epoch snapshot once for the whole batch: every request's
	// truth, index scan and noise input come from the same epoch, even
	// if an Advance lands mid-batch.
	sn := p.snap.Load()
	// Every check comes before any scan or noise is paid for: each
	// request's loss, the batch's summed budget, each request's attribute
	// list and mechanism, then the per-loss admission check. The atomic
	// SpendAll below stays authoritative.
	losses := make([]privacy.Loss, len(reqs))
	for i, req := range reqs {
		loss, err := lossFor(req, definitionFor(req.Mechanism, req.Attrs), sn.data.Schema())
		if err != nil {
			return nil, fmt.Errorf("core: batch request %d: %w", i, err)
		}
		losses[i] = loss
	}
	if a != nil {
		var sumEps, sumDelta float64
		for _, l := range losses {
			sumEps += l.Eps
			sumDelta += l.Delta
		}
		if a.AdmitTotal(sumEps, sumDelta) != nil {
			remEps, remDelta := a.Remaining()
			return nil, fmt.Errorf("core: batch blocked: %w: batch loss (eps=%g, delta=%g) exceeds remaining budget (eps=%g, delta=%g)",
				privacy.ErrBudgetExhausted, sumEps, sumDelta, remEps, remDelta)
		}
	}
	prs := make([]prepared, len(reqs))
	refs := make([]truthRef, len(reqs))
	for i, req := range reqs {
		pr, err := sn.prepare(req, losses[i])
		if err != nil {
			return nil, fmt.Errorf("core: batch request %d: %w", i, err)
		}
		prs[i], refs[i] = pr, pr.ref
	}
	if a != nil {
		if err := a.Admit(losses); err != nil {
			return nil, fmt.Errorf("core: batch blocked: %w", err)
		}
	}
	// One scan for every marginal the batch still needs.
	sn.prefetch(refs)

	// A fixed worker pool pulling request indices from an atomic counter:
	// no per-request goroutine or semaphore traffic, and with one worker
	// the batch runs inline. Request i still draws from
	// s.SplitIndex("batch", i), so scheduling never shows in the output.
	rels := make([]*Release, len(reqs))
	errs := make([]error, len(reqs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(reqs) {
		workers = len(reqs)
	}
	if workers <= 1 {
		for i := range reqs {
			rels[i], errs[i] = sn.release(prs[i], s.SplitIndex("batch", i))
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(reqs) {
						return
					}
					rels[i], errs[i] = sn.release(prs[i], s.SplitIndex("batch", i))
				}
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: batch request %d: %w", i, err)
		}
	}

	if a != nil {
		if err := a.SpendAllTagged(losses, stampTag(tag, sn.epoch)); err != nil {
			return nil, fmt.Errorf("core: batch blocked: %w", err)
		}
	}
	return rels, nil
}
