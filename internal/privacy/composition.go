package privacy

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Sentinel errors for the accountant's failure modes, so callers —
// HTTP front-ends in particular — can map outcomes to behavior
// (reject-with-retry-later vs reject-as-malformed) with errors.Is
// instead of matching message text.
var (
	// ErrBudgetExhausted: the charge would push the spent (ε, δ) past
	// the accountant's total budget. Nothing was spent.
	ErrBudgetExhausted = errors.New("privacy: budget exhausted")
	// ErrIncompatibleLoss: the loss's definition or α does not compose
	// with the accountant's (mixing them has no composition semantics).
	ErrIncompatibleLoss = errors.New("privacy: loss incompatible with accountant")
	// ErrInvalidLoss: the loss itself is malformed (non-positive ε,
	// δ outside [0,1), …) — bad input, not a budget condition, so a
	// serving layer should map it to a 4xx, never a 5xx.
	ErrInvalidLoss = errors.New("privacy: invalid loss")
)

// Loss is a privacy-loss triple (α, ε, δ). δ = 0 for pure definitions.
// α parameterizes the neighbor relation and does not compose — two losses
// can only be combined when their α (and definition) agree.
type Loss struct {
	Def   Definition
	Alpha float64
	Eps   float64
	Delta float64
}

// Validate returns an error describing the first invalid field, if any.
func (l Loss) Validate() error {
	if !(l.Eps > 0) {
		return fmt.Errorf("privacy: eps must be positive, got %v", l.Eps)
	}
	if !(l.Delta >= 0 && l.Delta < 1) {
		return fmt.Errorf("privacy: delta must be in [0,1), got %v", l.Delta)
	}
	switch l.Def {
	case StrongEREE, WeakEREE:
		if !(l.Alpha > 0) {
			return fmt.Errorf("privacy: ER-EE privacy requires alpha > 0, got %v", l.Alpha)
		}
	case EdgeDP, NodeDP:
		// α is implied: 0 for edge-DP, ∞ for node-DP (Section 7.2).
	default:
		return fmt.Errorf("privacy: %v is not a formal privacy definition", l.Def)
	}
	return nil
}

// String renders the loss for diagnostics.
func (l Loss) String() string {
	if l.Delta > 0 {
		return fmt.Sprintf("%v(alpha=%g, eps=%g, delta=%g)", l.Def, l.Alpha, l.Eps, l.Delta)
	}
	return fmt.Sprintf("%v(alpha=%g, eps=%g)", l.Def, l.Alpha, l.Eps)
}

func compatible(a, b Loss) error {
	if a.Def != b.Def {
		return fmt.Errorf("privacy: cannot compose %v with %v", a.Def, b.Def)
	}
	if a.Alpha != b.Alpha {
		return fmt.Errorf("privacy: cannot compose different alphas %v and %v", a.Alpha, b.Alpha)
	}
	return nil
}

// SequentialCompose implements Theorem 7.3 (and Theorem 2.1): releasing
// the outputs of two mechanisms on the same data costs the sum of the ε
// (and δ) losses. It applies identically to strong and weak ER-EE privacy.
func SequentialCompose(a, b Loss) (Loss, error) {
	if err := compatible(a, b); err != nil {
		return Loss{}, err
	}
	return Loss{Def: a.Def, Alpha: a.Alpha, Eps: a.Eps + b.Eps, Delta: a.Delta + b.Delta}, nil
}

// MarginalLoss returns the effective privacy loss of releasing every cell
// of a marginal query with per-cell loss cellLoss (Section 8's composition
// discussion):
//
//   - Under strong (α,ε)-ER-EE privacy, cells partition the workers
//     (Theorem 7.5 holds), so the marginal costs ε regardless of the
//     attributes involved.
//   - Under weak (α,ε)-ER-EE privacy, cells over establishment attributes
//     only partition the establishments (Theorem 7.4), so the marginal
//     costs ε; but a marginal involving worker attributes costs d·ε,
//     where d = workerDomainSize is the product of the worker-attribute
//     domain sizes in the query.
func MarginalLoss(cellLoss Loss, workerDomainSize int) (Loss, error) {
	if err := cellLoss.Validate(); err != nil {
		return Loss{}, err
	}
	if workerDomainSize < 1 {
		return Loss{}, fmt.Errorf("privacy: worker domain size must be >= 1, got %d", workerDomainSize)
	}
	out := cellLoss
	if cellLoss.Def == WeakEREE && workerDomainSize > 1 {
		out.Eps = cellLoss.Eps * float64(workerDomainSize)
		out.Delta = math.Min(1, cellLoss.Delta*float64(workerDomainSize))
	}
	return out, nil
}

// EpochSpend is one epoch's entry in the accountant's ledger: the loss
// charged against releases of that dataset epoch, and how many releases
// paid it. Epochs compose sequentially — the budget the accountant
// enforces is the sum over the ledger — because every epoch of a
// versioned dataset derives from the same underlying population:
// absorbing a quarterly delta does not refresh anyone's privacy.
type EpochSpend struct {
	Epoch    int
	Eps      float64
	Delta    float64
	Releases int
}

// Accountant tracks cumulative privacy loss across releases under
// sequential composition, enforcing a total budget. The α and definition
// are fixed at construction: mixing them has no composition semantics.
//
// Charges are additionally attributed to the current dataset epoch
// (AdvanceEpoch starts a new ledger entry; SpendByEpoch returns the
// ledger), giving a queryable spend-by-epoch view. Attribution is
// bookkeeping only: the enforced budget is the sequential composition
// across every epoch.
//
// An Accountant is safe for concurrent use: parallel releases charging
// the same budget serialize on an internal mutex, so the spent total is
// always the exact sequential composition of the successful charges.
type Accountant struct {
	def         Definition
	alpha       float64
	budgetEps   float64
	budgetDelta float64

	mu          sync.Mutex
	spentEps    float64
	spentDelta  float64
	numReleases int
	// ledger holds one entry per epoch since construction; the last
	// entry is the open epoch charges currently land in.
	ledger []EpochSpend
	// journal, when attached, makes every charge durable before it is
	// applied (see SpendAllTagged); tenant names this accountant in
	// the journaled records.
	journal Journal
	tenant  string
}

// NewAccountant creates an accountant for the given definition, α, and
// total (ε, δ) budget. The ledger opens at epoch 0.
func NewAccountant(def Definition, alpha, budgetEps, budgetDelta float64) (*Accountant, error) {
	probe := Loss{Def: def, Alpha: alpha, Eps: budgetEps, Delta: budgetDelta}
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	return &Accountant{
		def: def, alpha: alpha, budgetEps: budgetEps, budgetDelta: budgetDelta,
		ledger: []EpochSpend{{Epoch: 0}},
	}, nil
}

// Implies reports whether a guarantee under definition a is at least as
// strong as one under definition b (at the same α), so that a release
// certified under a may be charged against a budget stated under b.
// Strong (α,ε)-ER-EE privacy implies weak (α,ε)-ER-EE privacy: the weak
// α-neighbor pairs (Definition 7.3, which constrains every workforce
// property φ) are a subset of the strong pairs (Definition 7.1, which
// constrains only total size), so indistinguishability over the strong
// relation covers the weak one.
func Implies(a, b Definition) bool {
	if a == b {
		return true
	}
	return a == StrongEREE && b == WeakEREE
}

// Spend charges a release against the budget. It errors — without
// spending — if the charge would exhaust the budget or is incompatible.
// A loss under a definition that Implies the accountant's definition is
// accepted (e.g. a strong ER-EE release against a weak ER-EE budget).
func (a *Accountant) Spend(l Loss) error {
	return a.SpendAll([]Loss{l})
}

// SpendAll atomically charges a batch of releases: either every loss fits
// within the remaining budget and all are charged, or none is. Batched
// release pipelines use this so that a failing batch leaves the budget
// untouched instead of half-spent. With a journal attached the charge
// is made durable first — see SpendAllTagged.
func (a *Accountant) SpendAll(losses []Loss) error {
	return a.SpendAllTagged(losses, nil)
}

// AdvanceEpoch seals the current ledger entry and opens the next epoch,
// returning its number. Whoever advances the publisher's dataset calls
// this (the serving layer through Registry.AdvanceEpoch), so subsequent
// charges are attributed to releases of the new epoch. (A release
// pinned to an older snapshot that charges after the advance is
// attributed to the open epoch — attribution follows spend time; the
// enforced total is unaffected.) With a journal attached a journal
// failure leaves the ledger unchanged; use AdvanceEpochLogged to
// observe it.
func (a *Accountant) AdvanceEpoch() int {
	n, _ := a.AdvanceEpochLogged()
	return n
}

// Epoch returns the open ledger epoch charges currently land in.
func (a *Accountant) Epoch() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ledger[len(a.ledger)-1].Epoch
}

// SpendByEpoch returns the per-epoch ledger, oldest first. The sum of
// the entries' (ε, δ) is exactly Spent's sequential composition.
func (a *Accountant) SpendByEpoch() []EpochSpend {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]EpochSpend(nil), a.ledger...)
}

// Spent returns the cumulative loss so far.
func (a *Accountant) Spent() Loss {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Loss{Def: a.def, Alpha: a.alpha, Eps: a.spentEps, Delta: a.spentDelta}
}

// Remaining returns the unspent (ε, δ) budget.
func (a *Accountant) Remaining() (eps, delta float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.budgetEps - a.spentEps, a.budgetDelta - a.spentDelta
}

// Releases returns how many releases have been charged.
func (a *Accountant) Releases() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.numReleases
}
