package privacy

import (
	"slices"
	"sync"
	"testing"
)

// TestAccountantEpochLedger pins the per-epoch ledger: charges land in
// the open epoch, AdvanceEpoch seals entries, and the ledger sums to
// the sequential-composition total the budget enforces.
func TestAccountantEpochLedger(t *testing.T) {
	a, err := NewAccountant(StrongEREE, 0.1, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Epoch() != 0 {
		t.Fatalf("fresh accountant opens at epoch %d, want 0", a.Epoch())
	}
	l := Loss{Def: StrongEREE, Alpha: 0.1, Eps: 1}
	for i := 0; i < 3; i++ {
		if err := a.Spend(l); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.AdvanceEpoch(); got != 1 {
		t.Fatalf("AdvanceEpoch = %d, want 1", got)
	}
	if err := a.Spend(l); err != nil {
		t.Fatal(err)
	}
	a.AdvanceEpoch() // epoch 2 stays empty
	ledger := a.SpendByEpoch()
	want := []EpochSpend{
		{Epoch: 0, Eps: 3, Releases: 3},
		{Epoch: 1, Eps: 1, Releases: 1},
		{Epoch: 2},
	}
	if len(ledger) != len(want) {
		t.Fatalf("ledger has %d entries, want %d: %+v", len(ledger), len(want), ledger)
	}
	var sumEps float64
	for i, e := range ledger {
		if e != want[i] {
			t.Errorf("ledger[%d] = %+v, want %+v", i, e, want[i])
		}
		sumEps += e.Eps
	}
	if spent := a.Spent(); spent.Eps != sumEps {
		t.Errorf("ledger sums to eps %g, Spent reports %g", sumEps, spent.Eps)
	}
}

// TestAccountantBudgetSpansEpochs verifies sequential composition across
// epochs: advancing the epoch does not refresh the budget.
func TestAccountantBudgetSpansEpochs(t *testing.T) {
	a, err := NewAccountant(WeakEREE, 0.1, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := Loss{Def: WeakEREE, Alpha: 0.1, Eps: 2}
	if err := a.Spend(l); err != nil {
		t.Fatal(err)
	}
	a.AdvanceEpoch()
	if err := a.Spend(l); err == nil {
		t.Fatal("budget refreshed across epochs: second 2-eps charge fit a 3-eps budget")
	}
	ledger := a.SpendByEpoch()
	if ledger[1].Releases != 0 || ledger[1].Eps != 0 {
		t.Errorf("failed charge still entered the ledger: %+v", ledger[1])
	}
}

// TestAccountantEpochLedgerConcurrent charges from many goroutines with
// interleaved advances; the ledger total must equal the spent total
// regardless of which epoch each charge was attributed to.
func TestAccountantEpochLedgerConcurrent(t *testing.T) {
	a, err := NewAccountant(StrongEREE, 0.5, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := Loss{Def: StrongEREE, Alpha: 0.5, Eps: 1}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := a.Spend(l); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for e := 0; e < 4; e++ {
		a.AdvanceEpoch()
	}
	wg.Wait()
	var sumEps float64
	var releases int
	for _, e := range a.SpendByEpoch() {
		sumEps += e.Eps
		releases += e.Releases
	}
	if sumEps != 400 || releases != 400 {
		t.Errorf("ledger totals (eps=%g, releases=%d), want (400, 400)", sumEps, releases)
	}
	if got := a.Spent().Eps; got != 400 {
		t.Errorf("Spent().Eps = %g, want 400", got)
	}
}

// TestLedgerChargeAndAdvance: a charge lands in the totals and the open
// epoch, and an advance must name the epoch after the open one; any
// other epoch leaves the ledger as it was.
func TestLedgerChargeAndAdvance(t *testing.T) {
	l := NewLedger()
	l.Charge(0.5, 1e-9, 2)
	for _, e := range []int{-1, 0, 2} {
		if err := l.Advance(e); err == nil {
			t.Fatalf("advance to epoch %d from 0 accepted", e)
		}
	}
	if err := l.Advance(1); err != nil {
		t.Fatal(err)
	}
	l.Charge(0.25, 0, 1)
	want := Ledger{SpentEps: 0.75, SpentDelta: 1e-9, Releases: 3,
		Epochs: []EpochSpend{{Epoch: 0, Eps: 0.5, Delta: 1e-9, Releases: 2}, {Epoch: 1, Eps: 0.25, Releases: 1}}}
	if !slices.Equal(l.Epochs, want.Epochs) || l.SpentEps != want.SpentEps || l.SpentDelta != want.SpentDelta || l.Releases != want.Releases {
		t.Fatalf("ledger %+v, want %+v", l, want)
	}
}
