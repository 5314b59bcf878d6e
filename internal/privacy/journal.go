package privacy

import (
	"errors"
	"fmt"
)

// ErrPersistence: the accountant could not durably journal a charge,
// so nothing was spent and no release may be served. This is the
// write-ahead contract's refusal path — when the log is unavailable
// the service degrades (retry later) rather than serving releases
// whose spend would vanish in a crash.
var ErrPersistence = errors.New("privacy: durable spend log unavailable")

// SpendTag is the durable identity of a tagged charge: the request's
// wire identity (sequence number and body digest) plus the dataset
// epoch the released bytes were computed against. Because the wire
// format is deterministic in (tenant, seq, digest, epoch), a recovered
// tag is enough to recognize a client retry of an already-charged
// request and re-serve the identical bytes without charging again.
type SpendTag struct {
	Seq    int64
	Digest string
	Epoch  int
}

// SpendRecord is what the journal must make durable before a charge
// is applied (and before any response bytes leave the process). Eps
// and Delta are the already-summed totals of the batch being charged.
type SpendRecord struct {
	Tenant   string
	Eps      float64
	Delta    float64
	Releases int
	Tag      *SpendTag // nil for untagged (in-process) charges
}

// AdvanceRecord journals one tenant's ledger advancing to Epoch.
type AdvanceRecord struct {
	Tenant string
	Epoch  int
}

// RegisterRecord journals a tenant's existence and budget parameters,
// so recovery can rebuild an accountant before replaying its spends.
type RegisterRecord struct {
	Tenant      string
	Def         Definition
	Alpha       float64
	BudgetEps   float64
	BudgetDelta float64
}

// Journal is the persistence hook the accountant writes through. Every
// method must return only once the record is durable: the accountant
// calls LogSpend with its mutex held, before applying the charge, so a
// successful return is the moment the spend becomes real. An error
// aborts the charge (mapped to ErrPersistence) — over-charging on a
// crash after LogSpend is safe; under-charging is a privacy violation.
type Journal interface {
	LogSpend(SpendRecord) error
	LogAdvance(AdvanceRecord) error
	LogRegister(RegisterRecord) error
}

// AttachJournal routes this accountant's future charges and epoch
// advances through j, identified as tenant in the records.
func (a *Accountant) AttachJournal(j Journal, tenant string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.journal = j
	a.tenant = tenant
}

// SpendTagged is Spend carrying the request identity for the journal.
func (a *Accountant) SpendTagged(l Loss, tag *SpendTag) error {
	return a.SpendAllTagged([]Loss{l}, tag)
}

// SpendAllTagged is SpendAll carrying the request identity for the
// journal. When a journal is attached the summed charge is made
// durable first — under the accountant's mutex, so the journal sees
// the tenant's charges in exactly apply order and recovery's replay
// reproduces the spent totals bit-for-bit — and a journal failure
// aborts the charge with ErrPersistence.
func (a *Accountant) SpendAllTagged(losses []Loss, tag *SpendTag) error {
	sumEps, sumDelta, err := a.total(losses)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.admitLocked(sumEps, sumDelta); err != nil {
		return err
	}
	if a.journal != nil {
		rec := SpendRecord{Tenant: a.tenant, Eps: sumEps, Delta: sumDelta, Releases: len(losses)}
		if tag != nil {
			t := *tag
			rec.Tag = &t
		}
		if err := a.journal.LogSpend(rec); err != nil {
			return fmt.Errorf("%w: %v", ErrPersistence, err)
		}
	}
	a.ledger.Charge(sumEps, sumDelta, len(losses))
	return nil
}

// Admit returns the error SpendAll(losses) would fail with against the
// current balance, or nil, without spending or journaling anything.
// Release paths call it before they pay for a truth and its noise, so a
// request the accountant refuses costs nothing. The charge itself stays
// authoritative: a concurrent spend can still refuse what Admit
// accepted, while spent budget never shrinks, so anything Admit refuses
// a later charge refuses too.
func (a *Accountant) Admit(losses []Loss) error {
	sumEps, sumDelta, err := a.total(losses)
	if err != nil {
		return err
	}
	return a.AdmitTotal(sumEps, sumDelta)
}

// AdmitTotal is Admit for an already-summed charge of (eps, delta): it
// applies only the budget check, with no per-loss compatibility or
// validity checks. A batch release uses it to refuse an over-budget
// batch before anything else about the batch is checked, the order its
// errors have always come in.
func (a *Accountant) AdmitTotal(eps, delta float64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.admitLocked(eps, delta)
}

// total checks each loss against the accountant's definition and α and
// for validity, and sums the batch's (ε, δ).
func (a *Accountant) total(losses []Loss) (sumEps, sumDelta float64, err error) {
	for _, l := range losses {
		if !Implies(l.Def, a.def) || l.Alpha != a.alpha {
			return 0, 0, fmt.Errorf("%w: accountant is for %v(alpha=%g), got %v", ErrIncompatibleLoss, a.def, a.alpha, l)
		}
		if err := l.Validate(); err != nil {
			// Wrap in the sentinel so a serving layer classifies a
			// malformed loss as bad input (4xx), not a server fault.
			return 0, 0, fmt.Errorf("%w: %v", ErrInvalidLoss, err)
		}
		sumEps += l.Eps
		sumDelta += l.Delta
	}
	return sumEps, sumDelta, nil
}

// admitLocked is the accountant's one admission predicate: a further
// charge of (eps, delta) fits when neither running total would exceed
// its budget beyond the float tolerance. Every admission check and every
// charge goes through it. The caller holds a.mu.
func (a *Accountant) admitLocked(eps, delta float64) error {
	if a.ledger.SpentEps+eps > a.budgetEps+1e-12 {
		return fmt.Errorf("%w: eps spent %g + %g > %g",
			ErrBudgetExhausted, a.ledger.SpentEps, eps, a.budgetEps)
	}
	if a.ledger.SpentDelta+delta > a.budgetDelta+1e-15 {
		return fmt.Errorf("%w: delta spent %g + %g > %g",
			ErrBudgetExhausted, a.ledger.SpentDelta, delta, a.budgetDelta)
	}
	return nil
}

// AdvanceEpochLogged is AdvanceEpoch through the journal: the advance
// record is made durable before the ledger moves, so recovery either
// replays the advance or never saw it — a ledger can't be caught
// between epochs. On journal failure the ledger is unchanged and the
// current epoch is returned with an ErrPersistence-wrapped error.
func (a *Accountant) AdvanceEpochLogged() (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cur := a.ledger.Epoch()
	if a.journal != nil {
		if err := a.journal.LogAdvance(AdvanceRecord{Tenant: a.tenant, Epoch: cur + 1}); err != nil {
			return cur, fmt.Errorf("%w: %v", ErrPersistence, err)
		}
	}
	return cur + 1, a.ledger.Advance(cur + 1)
}

// Budget returns the accountant's total (ε, δ) budget.
func (a *Accountant) Budget() (eps, delta float64) {
	return a.budgetEps, a.budgetDelta
}

// Def returns the accountant's privacy definition and α.
func (a *Accountant) Def() (Definition, float64) {
	return a.def, a.alpha
}

// Restore reinstates a recovered ledger onto a freshly constructed
// accountant, exactly as recorded — no budget check is applied, because
// a recovered spend is history, not a new charge (an operator may even
// have shrunk the budget below the recorded spend; the accountant then
// simply refuses further charges). It errors on an accountant that has
// already been charged or advanced, and on a ledger whose epochs are
// empty or do not strictly increase.
func (a *Accountant) Restore(l Ledger) error {
	if len(l.Epochs) == 0 {
		return fmt.Errorf("privacy: restore needs a non-empty ledger")
	}
	for i := 1; i < len(l.Epochs); i++ {
		if l.Epochs[i].Epoch <= l.Epochs[i-1].Epoch {
			return fmt.Errorf("privacy: restore ledger epochs must strictly increase (%d then %d)",
				l.Epochs[i-1].Epoch, l.Epochs[i].Epoch)
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if cur := a.ledger; cur.SpentEps != 0 || cur.SpentDelta != 0 || cur.Releases != 0 ||
		len(cur.Epochs) != 1 || cur.Epochs[0] != (EpochSpend{}) {
		return fmt.Errorf("privacy: restore onto an already-used accountant")
	}
	a.ledger = l.Clone()
	return nil
}
