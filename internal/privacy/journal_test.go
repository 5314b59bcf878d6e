package privacy

import (
	"errors"
	"fmt"
	"testing"
)

// fakeJournal records every logged record and can be told to fail.
type fakeJournal struct {
	spends    []SpendRecord
	advances  []AdvanceRecord
	registers []RegisterRecord
	fail      error
}

func (j *fakeJournal) LogSpend(r SpendRecord) error {
	if j.fail != nil {
		return j.fail
	}
	j.spends = append(j.spends, r)
	return nil
}

func (j *fakeJournal) LogAdvance(r AdvanceRecord) error {
	if j.fail != nil {
		return j.fail
	}
	j.advances = append(j.advances, r)
	return nil
}

func (j *fakeJournal) LogRegister(r RegisterRecord) error {
	if j.fail != nil {
		return j.fail
	}
	j.registers = append(j.registers, r)
	return nil
}

func newTestAccountant(t *testing.T) *Accountant {
	t.Helper()
	a, err := NewAccountant(StrongEREE, 2, 10, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSpendJournaledBeforeApply(t *testing.T) {
	a := newTestAccountant(t)
	j := &fakeJournal{}
	a.AttachJournal(j, "alpha")

	tag := &SpendTag{Seq: 7, Digest: "abc", Epoch: 3}
	losses := []Loss{
		{Def: StrongEREE, Alpha: 2, Eps: 1.5},
		{Def: StrongEREE, Alpha: 2, Eps: 0.25},
	}
	if err := a.SpendAllTagged(losses, tag); err != nil {
		t.Fatalf("SpendAllTagged: %v", err)
	}
	if len(j.spends) != 1 {
		t.Fatalf("journal saw %d spend records, want 1", len(j.spends))
	}
	rec := j.spends[0]
	if rec.Tenant != "alpha" || rec.Eps != 1.75 || rec.Releases != 2 {
		t.Fatalf("spend record = %+v", rec)
	}
	if rec.Tag == nil || *rec.Tag != *tag {
		t.Fatalf("spend record tag = %+v, want %+v", rec.Tag, tag)
	}
	// The record holds a copy, not the caller's pointer.
	tag.Seq = 99
	if rec.Tag.Seq != 7 {
		t.Fatal("journal record aliases the caller's tag")
	}
	if got := a.Spent().Eps; got != 1.75 {
		t.Fatalf("spent eps = %g, want 1.75", got)
	}
}

func TestJournalFailureAbortsSpend(t *testing.T) {
	a := newTestAccountant(t)
	j := &fakeJournal{fail: fmt.Errorf("disk full")}
	a.AttachJournal(j, "alpha")

	err := a.Spend(Loss{Def: StrongEREE, Alpha: 2, Eps: 1})
	if !errors.Is(err, ErrPersistence) {
		t.Fatalf("spend with failing journal: %v, want ErrPersistence", err)
	}
	if got := a.Spent().Eps; got != 0 {
		t.Fatalf("failed journal write still spent eps=%g; the charge must not apply", got)
	}
	if a.Releases() != 0 {
		t.Fatal("failed journal write counted a release")
	}
}

func TestRejectedSpendNotJournaled(t *testing.T) {
	a := newTestAccountant(t)
	j := &fakeJournal{}
	a.AttachJournal(j, "alpha")
	// Over budget: rejected before the journal sees anything, so
	// recovery can treat every journaled spend as applied.
	err := a.Spend(Loss{Def: StrongEREE, Alpha: 2, Eps: 11})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v", err)
	}
	if len(j.spends) != 0 {
		t.Fatal("rejected charge reached the journal")
	}
}

func TestAdvanceEpochLogged(t *testing.T) {
	a := newTestAccountant(t)
	j := &fakeJournal{}
	a.AttachJournal(j, "alpha")

	n, err := a.AdvanceEpochLogged()
	if err != nil || n != 1 {
		t.Fatalf("AdvanceEpochLogged = %d, %v", n, err)
	}
	if len(j.advances) != 1 || j.advances[0] != (AdvanceRecord{Tenant: "alpha", Epoch: 1}) {
		t.Fatalf("advance records = %+v", j.advances)
	}

	j.fail = fmt.Errorf("disk full")
	if _, err := a.AdvanceEpochLogged(); !errors.Is(err, ErrPersistence) {
		t.Fatalf("err = %v, want ErrPersistence", err)
	}
	if got := a.Epoch(); got != 1 {
		t.Fatalf("failed advance moved the ledger to epoch %d", got)
	}
}

func TestRegistryAttachJournal(t *testing.T) {
	r := NewRegistry()
	a1 := newTestAccountant(t)
	a2 := newTestAccountant(t)
	if _, err := r.Register("beta", "key-b", a2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("alpha", "key-a", a1); err != nil {
		t.Fatal(err)
	}
	j := &fakeJournal{}
	if err := r.AttachJournal(j); err != nil {
		t.Fatal(err)
	}
	if len(j.registers) != 2 || j.registers[0].Tenant != "alpha" || j.registers[1].Tenant != "beta" {
		t.Fatalf("register records = %+v, want alpha then beta", j.registers)
	}
	if j.registers[0].BudgetEps != 10 || j.registers[0].Def != StrongEREE || j.registers[0].Alpha != 2 {
		t.Fatalf("register record = %+v", j.registers[0])
	}

	// Late registration is journaled too.
	a3 := newTestAccountant(t)
	if _, err := r.Register("gamma", "key-c", a3); err != nil {
		t.Fatal(err)
	}
	if len(j.registers) != 3 || j.registers[2].Tenant != "gamma" {
		t.Fatalf("late registration not journaled: %+v", j.registers)
	}
	if err := a3.Spend(Loss{Def: StrongEREE, Alpha: 2, Eps: 1}); err != nil {
		t.Fatal(err)
	}
	if len(j.spends) != 1 || j.spends[0].Tenant != "gamma" {
		t.Fatalf("late-registered tenant's spend not journaled: %+v", j.spends)
	}

	// Registration that cannot be journaled does not register.
	j.fail = fmt.Errorf("disk full")
	if _, err := r.Register("delta", "key-d", newTestAccountant(t)); !errors.Is(err, ErrPersistence) {
		t.Fatalf("err = %v, want ErrPersistence", err)
	}
	if _, ok := r.Tenant("delta"); ok {
		t.Fatal("unjournaled tenant was registered")
	}
}

func TestRegistryAdvanceEpochLogged(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Register("alpha", "key-a", newTestAccountant(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("beta", "key-b", newTestAccountant(t)); err != nil {
		t.Fatal(err)
	}
	j := &fakeJournal{}
	if err := r.AttachJournal(j); err != nil {
		t.Fatal(err)
	}
	if err := r.AdvanceEpoch(); err != nil {
		t.Fatal(err)
	}
	if len(j.advances) != 2 || j.advances[0].Tenant != "alpha" || j.advances[1].Tenant != "beta" {
		t.Fatalf("advance records = %+v", j.advances)
	}
	j.fail = fmt.Errorf("disk full")
	if err := r.AdvanceEpoch(); !errors.Is(err, ErrPersistence) {
		t.Fatalf("err = %v, want ErrPersistence", err)
	}
}

func TestRestoreBitIdentical(t *testing.T) {
	// Drive an accountant through charges and advances, then restore a
	// fresh one from its ledger: every float must match
	// bit-for-bit, because recovery replays the same additions in the
	// same order.
	src := newTestAccountant(t)
	for i := 0; i < 5; i++ {
		if err := src.Spend(Loss{Def: StrongEREE, Alpha: 2, Eps: 0.1 * float64(i+1), Delta: 1e-9}); err != nil {
			t.Fatal(err)
		}
	}
	src.AdvanceEpoch()
	if err := src.Spend(Loss{Def: StrongEREE, Alpha: 2, Eps: 0.7}); err != nil {
		t.Fatal(err)
	}

	dst := newTestAccountant(t)
	if err := dst.Restore(src.Ledger()); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if dst.Spent() != src.Spent() {
		t.Fatalf("restored Spent %+v != source %+v", dst.Spent(), src.Spent())
	}
	if dst.Releases() != src.Releases() || dst.Epoch() != src.Epoch() {
		t.Fatal("restored counters diverge")
	}
	sl, dl := src.SpendByEpoch(), dst.SpendByEpoch()
	if len(sl) != len(dl) {
		t.Fatalf("ledger lengths %d vs %d", len(sl), len(dl))
	}
	for i := range sl {
		if sl[i] != dl[i] {
			t.Fatalf("ledger entry %d: %+v vs %+v", i, sl[i], dl[i])
		}
	}
	// Future charges see the restored spend.
	re, _ := dst.Remaining()
	se, _ := src.Remaining()
	if re != se {
		t.Fatalf("remaining diverges: %g vs %g", re, se)
	}
}

func TestRestoreGuards(t *testing.T) {
	a := newTestAccountant(t)
	if err := a.Restore(Ledger{SpentEps: 1, Releases: 1}); err == nil {
		t.Fatal("empty ledger accepted")
	}
	if err := a.Restore(Ledger{SpentEps: 1, Releases: 1, Epochs: []EpochSpend{{Epoch: 2}, {Epoch: 1}}}); err == nil {
		t.Fatal("non-increasing ledger accepted")
	}
	if err := a.Spend(Loss{Def: StrongEREE, Alpha: 2, Eps: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Restore(Ledger{SpentEps: 1, Releases: 1, Epochs: []EpochSpend{{Epoch: 0, Eps: 1, Releases: 1}}}); err == nil {
		t.Fatal("restore onto a used accountant accepted")
	}
}

func TestRestoreOverBudgetRefusesFurtherCharges(t *testing.T) {
	// An operator may shrink the budget below an already-recorded
	// spend; the restored accountant must carry the history and refuse
	// new charges rather than reject the history.
	a, err := NewAccountant(StrongEREE, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Restore(Ledger{SpentEps: 5, Releases: 3, Epochs: []EpochSpend{{Epoch: 0, Eps: 5, Releases: 3}}}); err != nil {
		t.Fatalf("Restore of over-budget history: %v", err)
	}
	if err := a.Spend(Loss{Def: StrongEREE, Alpha: 2, Eps: 0.1}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("charge on over-budget accountant: %v, want ErrBudgetExhausted", err)
	}
}

// TestAdmitMatchesSpend: Admit refuses exactly what a charge of the same
// losses would refuse, with the same error, and neither spends nor
// journals anything; AdmitTotal applies the budget half alone.
func TestAdmitMatchesSpend(t *testing.T) {
	weak := func(alpha, eps float64) Loss { return Loss{Def: WeakEREE, Alpha: alpha, Eps: eps} }
	cases := []struct {
		name   string
		losses []Loss
	}{
		{"fits", []Loss{weak(0.1, 0.2), weak(0.1, 0.3)}},
		{"fits exactly", []Loss{weak(0.1, 0.5), weak(0.1, 0.2)}},
		{"over budget", []Loss{weak(0.1, 0.5), weak(0.1, 0.3)}},
		{"strong implies weak", []Loss{{Def: StrongEREE, Alpha: 0.1, Eps: 0.4}}},
		{"incompatible alpha", []Loss{weak(0.2, 0.1)}},
		{"incompatible definition", []Loss{{Def: EdgeDP, Eps: 0.1}}},
		{"invalid", []Loss{weak(0.1, -1)}},
	}
	for _, c := range cases {
		j := &fakeJournal{}
		a, err := NewAccountant(WeakEREE, 0.1, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		a.AttachJournal(j, "t")
		if err := a.Spend(weak(0.1, 0.3)); err != nil {
			t.Fatal(err)
		}
		admitErr := a.Admit(c.losses)
		if got := a.Spent().Eps; got != 0.3 || len(j.spends) != 1 {
			t.Fatalf("%s: Admit spent (eps %g, %d records)", c.name, got, len(j.spends))
		}
		spendErr := a.SpendAll(c.losses)
		if (admitErr == nil) != (spendErr == nil) ||
			(admitErr != nil && admitErr.Error() != spendErr.Error()) {
			t.Errorf("%s: Admit = %v, SpendAll = %v", c.name, admitErr, spendErr)
		}
	}

	a, err := NewAccountant(WeakEREE, 0.1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AdmitTotal(1, 0); err != nil {
		t.Errorf("AdmitTotal(1, 0) on a fresh budget of 1 = %v", err)
	}
	if err := a.AdmitTotal(1.5, 0); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("AdmitTotal(1.5, 0) = %v, want ErrBudgetExhausted", err)
	}
}
