package core

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/lodes"
	"repro/internal/privacy"
)

// TestReleaseErrorSentinels: every failure mode of the release paths
// carries a typed sentinel, so a serving layer maps errors to status
// codes with errors.Is instead of string-matching. The table runs each
// scenario through ReleaseMarginal; batch and single-cell variants are
// covered below.
func TestReleaseErrorSentinels(t *testing.T) {
	d := smallDataset(t, 71)
	acct, err := privacy.NewAccountant(privacy.WeakEREE, 0.1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPublisher(d)
	good := Request{Attrs: workload1Attrs(), Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2}

	cases := []struct {
		desc string
		req  Request
		want error
	}{
		{"unknown attribute", Request{Attrs: []string{"place", "starsign"}, Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2}, ErrUnknownMarginal},
		{"duplicate attribute", Request{Attrs: []string{"place", "place"}, Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2}, ErrUnknownMarginal},
		{"negative eps", Request{Attrs: workload1Attrs(), Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: -1}, ErrInvalidRequest},
		{"zero alpha", Request{Attrs: workload1Attrs(), Mechanism: MechSmoothGamma, Alpha: 0, Eps: 2}, ErrInvalidRequest},
		{"unknown mechanism kind", Request{Attrs: workload1Attrs(), Mechanism: MechanismKind(99), Alpha: 0.1, Eps: 2}, ErrInvalidRequest},
		{"smooth-laplace without delta", Request{Attrs: workload1Attrs(), Mechanism: MechSmoothLaplace, Alpha: 0.1, Eps: 2, Delta: 0}, ErrInvalidRequest},
	}
	for _, c := range cases {
		t.Run(c.desc, func(t *testing.T) {
			_, err := p.ReleaseMarginal(acct, c.req, dist.NewStreamFromSeed(1), nil)
			if !errors.Is(err, c.want) {
				t.Fatalf("ReleaseMarginal error = %v, want errors.Is %v", err, c.want)
			}
			// Failed requests must never spend budget.
			if eps, _ := acct.Remaining(); eps != 2 {
				t.Fatalf("failed request spent budget: remaining eps = %g, want 2", eps)
			}
			// The batch path classifies the same failures identically.
			_, err = p.ReleaseBatch(acct, []Request{c.req}, dist.NewStreamFromSeed(1), nil)
			if !errors.Is(err, c.want) {
				t.Fatalf("ReleaseBatch error = %v, want errors.Is %v", err, c.want)
			}
		})
	}

	// Budget exhaustion carries privacy.ErrBudgetExhausted through the
	// core wrap, on all three release paths.
	if _, err := p.ReleaseMarginal(acct, good, dist.NewStreamFromSeed(2), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReleaseMarginal(acct, good, dist.NewStreamFromSeed(3), nil); !errors.Is(err, privacy.ErrBudgetExhausted) {
		t.Fatalf("over-budget ReleaseMarginal = %v, want ErrBudgetExhausted", err)
	}
	if _, err := p.ReleaseBatch(acct, []Request{good}, dist.NewStreamFromSeed(4), nil); !errors.Is(err, privacy.ErrBudgetExhausted) {
		t.Fatalf("over-budget ReleaseBatch = %v, want ErrBudgetExhausted", err)
	}
	if _, _, _, _, err := p.ReleaseSingleCell(acct, good, []string{lodes.PlaceName(0), "44-Retail", "Private"}, dist.NewStreamFromSeed(5), nil); !errors.Is(err, privacy.ErrBudgetExhausted) {
		t.Fatalf("over-budget ReleaseSingleCell = %v, want ErrBudgetExhausted", err)
	}
}

// TestSingleCellErrorSentinels: the single-cell path's own failure
// modes — unknown cell values, wrong arity, marginal-level mechanism.
func TestSingleCellErrorSentinels(t *testing.T) {
	p := NewPublisher(smallDataset(t, 72))
	good := Request{Attrs: []string{lodes.AttrPlace}, Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2}

	if _, _, _, _, err := p.ReleaseSingleCell(nil, good, []string{"not-a-place"}, dist.NewStreamFromSeed(1), nil); !errors.Is(err, ErrUnknownCell) {
		t.Fatalf("unknown value error = %v, want ErrUnknownCell", err)
	}
	if _, _, _, _, err := p.ReleaseSingleCell(nil, good, []string{lodes.PlaceName(0), "extra"}, dist.NewStreamFromSeed(1), nil); !errors.Is(err, ErrUnknownCell) {
		t.Fatalf("wrong arity error = %v, want ErrUnknownCell", err)
	}
	trunc := good
	trunc.Mechanism = MechTruncatedLaplace
	if _, _, _, _, err := p.ReleaseSingleCell(nil, trunc, []string{lodes.PlaceName(0)}, dist.NewStreamFromSeed(1), nil); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("truncated-laplace single cell error = %v, want ErrInvalidRequest", err)
	}
	bad := good
	bad.Attrs = []string{"starsign"}
	if _, _, _, _, err := p.ReleaseSingleCell(nil, bad, []string{"aries"}, dist.NewStreamFromSeed(1), nil); !errors.Is(err, ErrUnknownMarginal) {
		t.Fatalf("unknown attribute error = %v, want ErrUnknownMarginal", err)
	}
}

// TestParseMechanismKindSentinel: command-line / wire mechanism parsing
// classifies unknown names as invalid requests.
func TestParseMechanismKindSentinel(t *testing.T) {
	if _, err := ParseMechanismKind("smooth-cauchy"); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("ParseMechanismKind error = %v, want ErrInvalidRequest", err)
	}
	if k, err := ParseMechanismKind("smooth-gamma"); err != nil || k != MechSmoothGamma {
		t.Fatalf("ParseMechanismKind(smooth-gamma) = %v, %v", k, err)
	}
}

// TestReleaseForPerTenantAccounting: one publisher charges whichever
// accountant each call names, and a nil accountant releases unaccounted
// — the multi-tenant serving contract.
func TestReleaseForPerTenantAccounting(t *testing.T) {
	d := smallDataset(t, 73)
	tenantA, _ := privacy.NewAccountant(privacy.WeakEREE, 0.1, 10, 0)
	tenantB, _ := privacy.NewAccountant(privacy.WeakEREE, 0.1, 3, 0)
	p := NewPublisher(d)
	req := Request{Attrs: workload1Attrs(), Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2}

	if _, err := p.ReleaseMarginal(tenantA, req, dist.NewStreamFromSeed(1), nil); err != nil {
		t.Fatal(err)
	}
	if eps, _ := tenantA.Remaining(); eps != 8 {
		t.Fatalf("tenant A remaining = %g, want 8", eps)
	}
	if eps, _ := tenantB.Remaining(); eps != 3 {
		t.Fatalf("tenant A's release charged tenant B: remaining = %g", eps)
	}

	// Batch admission control fails fast against the given accountant.
	batch := []Request{req, req}
	if _, err := p.ReleaseBatch(tenantB, batch, dist.NewStreamFromSeed(2), nil); !errors.Is(err, privacy.ErrBudgetExhausted) {
		t.Fatalf("over-budget batch for tenant B = %v, want ErrBudgetExhausted", err)
	}
	if eps, _ := tenantB.Remaining(); eps != 3 {
		t.Fatalf("rejected batch spent tenant B budget: remaining = %g, want 3", eps)
	}
	if _, err := p.ReleaseBatch(tenantA, batch, dist.NewStreamFromSeed(2), nil); err != nil {
		t.Fatal(err)
	}
	if eps, _ := tenantA.Remaining(); eps != 4 {
		t.Fatalf("tenant A remaining after batch = %g, want 4", eps)
	}

	// Nil accountant: an unaccounted release charges no tenant.
	if _, err := p.ReleaseMarginal(nil, req, dist.NewStreamFromSeed(3), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReleaseBatch(nil, batch, dist.NewStreamFromSeed(4), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := p.ReleaseSingleCell(nil, req, []string{lodes.PlaceName(0), "44-Retail", "Private"}, dist.NewStreamFromSeed(5), nil); err != nil {
		t.Fatal(err)
	}
	if a, b := tenantA.Spent().Eps, tenantB.Spent().Eps; a != 6 || b != 0 {
		t.Fatalf("unaccounted releases charged a tenant: spent A = %g, B = %g, want 6 and 0", a, b)
	}
}

// TestRefusedRequestsTouchNothing pins admission before truth: every
// release kind checks its parameters, its attribute list, its mechanism
// and the accountant before it fetches a truth, so a request refused
// with a 400 or a 429 scans, caches and draws nothing. Each refused
// request names the full 8-attribute set in a new order — one truth of
// it is ~44 MB on test data — so any truth fetched behind a refusal
// shows in the heap at once.
func TestRefusedRequestsTouchNothing(t *testing.T) {
	p := testPublisher(t, 31)
	schema := p.Dataset().Schema()
	names := schema.Names()
	acct, err := privacy.NewAccountant(privacy.WeakEREE, 0.1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	spelling := func(i int) []string {
		return append(append([]string(nil), names[i:]...), names[:i]...)
	}
	firstCell := func(attrs []string) []string {
		values := make([]string, len(attrs))
		for i, a := range attrs {
			values[i] = schema.Attr(schema.MustAttrIndex(a)).Value(0)
		}
		return values
	}
	s := dist.NewStreamFromSeed(1)
	// Over budget: the weak-privacy d·ε surcharge alone exceeds ε = 1.
	over := Request{Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 2}
	// Outside smooth-gamma's validity region (α+1 < e^(ε/5) fails).
	invalid := Request{Mechanism: MechSmoothGamma, Alpha: 0.1, Eps: 0.2}
	// Edge-DP and node-DP losses cannot be charged to a weak ER-EE budget.
	edge := Request{Mechanism: MechEdgeLaplace, Eps: 0.5}
	trunc := Request{Mechanism: MechTruncatedLaplace, Eps: 0.5, Theta: 10}
	with := func(req Request, attrs []string) Request {
		req.Attrs = attrs
		return req
	}
	refusals := []struct {
		name string
		want error
		call func(attrs []string) error
	}{
		{"marginal over budget", privacy.ErrBudgetExhausted, func(attrs []string) error {
			_, err := p.ReleaseMarginal(acct, with(over, attrs), s, nil)
			return err
		}},
		{"marginal invalid mechanism", ErrInvalidRequest, func(attrs []string) error {
			_, err := p.ReleaseMarginal(acct, with(invalid, attrs), s, nil)
			return err
		}},
		{"marginal incompatible loss", privacy.ErrIncompatibleLoss, func(attrs []string) error {
			_, err := p.ReleaseMarginal(acct, with(edge, attrs), s, nil)
			return err
		}},
		{"truncated incompatible loss", privacy.ErrIncompatibleLoss, func(attrs []string) error {
			_, err := p.ReleaseMarginal(acct, with(trunc, attrs), s, nil)
			return err
		}},
		{"cell over budget", privacy.ErrBudgetExhausted, func(attrs []string) error {
			_, _, _, _, err := p.ReleaseSingleCell(acct, with(over, attrs), firstCell(attrs), s, nil)
			return err
		}},
		{"cell invalid mechanism", ErrInvalidRequest, func(attrs []string) error {
			_, _, _, _, err := p.ReleaseSingleCell(acct, with(invalid, attrs), firstCell(attrs), s, nil)
			return err
		}},
		{"batch over budget", privacy.ErrBudgetExhausted, func(attrs []string) error {
			_, err := p.ReleaseBatch(acct, []Request{with(over, attrs)}, s, nil)
			return err
		}},
		{"batch invalid mechanism", ErrInvalidRequest, func(attrs []string) error {
			_, err := p.ReleaseBatch(nil, []Request{with(edge, attrs), with(invalid, attrs)}, s, nil)
			return err
		}},
	}

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	stats := p.MarginalCacheStats()
	before := heap()
	for i, r := range refusals {
		if err := r.call(spelling(i + 1)); !errors.Is(err, r.want) {
			t.Fatalf("%s: err = %v, want %v", r.name, err, r.want)
		}
	}
	after := heap()
	if got := p.MarginalCacheStats(); got != stats {
		t.Errorf("refused requests moved the cache counters: %+v -> %+v", stats, got)
	}
	if n := len(p.snap.Load().cache.committed()); n != 0 {
		t.Errorf("refused requests cached %d truths", n)
	}
	if after > before+1<<20 {
		t.Errorf("refused requests grew the heap from %d to %d bytes", before, after)
	}
	if spent := acct.Spent(); spent.Eps != 0 || acct.Releases() != 0 {
		t.Errorf("refused requests spent %+v over %d releases", spent, acct.Releases())
	}
}
