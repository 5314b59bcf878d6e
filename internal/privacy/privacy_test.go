package privacy

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestTable1Matrix(t *testing.T) {
	// The exact Table 1 entries.
	want := map[Definition][3]Satisfaction{
		InputNoiseInfusion: {No, No, No},
		EdgeDP:             {Yes, No, No},
		NodeDP:             {Yes, Yes, Yes},
		StrongEREE:         {Yes, Yes, Yes},
		WeakEREE:           {Yes, YesWeakAdversary, Yes},
	}
	for def, row := range want {
		for i, req := range Requirements() {
			if got := Satisfies(def, req); got != row[i] {
				t.Errorf("Satisfies(%v, %v) = %v, want %v", def, req, got, row[i])
			}
		}
	}
}

func TestStrings(t *testing.T) {
	for _, d := range Definitions() {
		if d.String() == "" {
			t.Errorf("definition %d has empty name", int(d))
		}
	}
	for _, r := range Requirements() {
		if r.String() == "" {
			t.Errorf("requirement %d has empty name", int(r))
		}
	}
	for _, s := range []Satisfaction{No, Yes, YesWeakAdversary} {
		if s.String() == "" {
			t.Error("satisfaction has empty string")
		}
	}
	if (Loss{Def: StrongEREE, Alpha: 0.1, Eps: 1}).String() == "" {
		t.Error("loss string empty")
	}
	if (Loss{Def: WeakEREE, Alpha: 0.1, Eps: 1, Delta: 0.01}).String() == "" {
		t.Error("loss string with delta empty")
	}
}

func TestLossValidate(t *testing.T) {
	good := Loss{Def: StrongEREE, Alpha: 0.1, Eps: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Loss{
		{Def: StrongEREE, Alpha: 0.1, Eps: 0},
		{Def: StrongEREE, Alpha: 0, Eps: 1},
		{Def: StrongEREE, Alpha: 0.1, Eps: 1, Delta: 1},
		{Def: InputNoiseInfusion, Alpha: 0.1, Eps: 1},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("loss %d should be invalid: %v", i, l)
		}
	}
	edgeDP := Loss{Def: EdgeDP, Eps: 1}
	if err := edgeDP.Validate(); err != nil {
		t.Errorf("edge-DP loss without alpha should validate: %v", err)
	}
}

func TestSequentialCompose(t *testing.T) {
	a := Loss{Def: StrongEREE, Alpha: 0.1, Eps: 1, Delta: 0.01}
	b := Loss{Def: StrongEREE, Alpha: 0.1, Eps: 2, Delta: 0.02}
	got, err := SequentialCompose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Eps != 3 || math.Abs(got.Delta-0.03) > 1e-15 {
		t.Errorf("sequential composition = %v, want eps=3 delta=0.03", got)
	}
}

func TestSequentialComposeIncompatible(t *testing.T) {
	a := Loss{Def: StrongEREE, Alpha: 0.1, Eps: 1}
	if _, err := SequentialCompose(a, Loss{Def: WeakEREE, Alpha: 0.1, Eps: 1}); err == nil {
		t.Error("different definitions composed")
	}
	if _, err := SequentialCompose(a, Loss{Def: StrongEREE, Alpha: 0.2, Eps: 1}); err == nil {
		t.Error("different alphas composed")
	}
}

func TestParallelComposeTheorem74(t *testing.T) {
	// Distinct establishments: max for both strong and weak.
	for _, def := range []Definition{StrongEREE, WeakEREE} {
		a := Loss{Def: def, Alpha: 0.1, Eps: 1}
		b := Loss{Def: def, Alpha: 0.1, Eps: 2}
		got, fellBack, err := ParallelCompose(a, b, DistinctEstablishments)
		if err != nil {
			t.Fatal(err)
		}
		if fellBack {
			t.Errorf("%v: parallel composition over distinct establishments fell back", def)
		}
		if got.Eps != 2 {
			t.Errorf("%v: eps = %v, want max = 2", def, got.Eps)
		}
	}
}

func TestParallelComposeTheorem75(t *testing.T) {
	// Distinct workers, shared establishments: holds for strong, fails
	// (falls back to sequential) for weak.
	a := Loss{Def: StrongEREE, Alpha: 0.1, Eps: 1}
	b := Loss{Def: StrongEREE, Alpha: 0.1, Eps: 1}
	got, fellBack, err := ParallelCompose(a, b, DistinctWorkersSharedEstablishments)
	if err != nil {
		t.Fatal(err)
	}
	if fellBack || got.Eps != 1 {
		t.Errorf("strong: got %v fellBack=%v, want eps=1 without fallback", got, fellBack)
	}

	aw := Loss{Def: WeakEREE, Alpha: 0.1, Eps: 1}
	bw := Loss{Def: WeakEREE, Alpha: 0.1, Eps: 1}
	gotW, fellBackW, err := ParallelCompose(aw, bw, DistinctWorkersSharedEstablishments)
	if err != nil {
		t.Fatal(err)
	}
	if !fellBackW || gotW.Eps != 2 {
		t.Errorf("weak: got %v fellBack=%v, want sequential eps=2", gotW, fellBackW)
	}
}

func TestMarginalLoss(t *testing.T) {
	cell := Loss{Def: StrongEREE, Alpha: 0.1, Eps: 0.5}
	got, err := MarginalLoss(cell, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got.Eps != 0.5 {
		t.Errorf("strong marginal eps = %v, want 0.5 (parallel composes)", got.Eps)
	}

	weakCell := Loss{Def: WeakEREE, Alpha: 0.1, Eps: 0.5}
	gotW, err := MarginalLoss(weakCell, 8)
	if err != nil {
		t.Fatal(err)
	}
	if gotW.Eps != 4 {
		t.Errorf("weak marginal over worker attrs eps = %v, want d*eps = 4", gotW.Eps)
	}
	gotWE, err := MarginalLoss(weakCell, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gotWE.Eps != 0.5 {
		t.Errorf("weak establishment-only marginal eps = %v, want 0.5", gotWE.Eps)
	}
	if _, err := MarginalLoss(cell, 0); err == nil {
		t.Error("domain size 0 accepted")
	}
}

func TestAccountant(t *testing.T) {
	a, err := NewAccountant(StrongEREE, 0.1, 4.0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	spend := Loss{Def: StrongEREE, Alpha: 0.1, Eps: 1.5, Delta: 0.03}
	if err := a.Spend(spend); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(spend); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(spend); err == nil {
		t.Error("third spend should exhaust eps budget (4.5 > 4)")
	}
	if a.Releases() != 2 {
		t.Errorf("releases = %d, want 2", a.Releases())
	}
	eps, delta := a.Remaining()
	if math.Abs(eps-1.0) > 1e-12 || math.Abs(delta-0.04) > 1e-12 {
		t.Errorf("remaining = (%v, %v), want (1, 0.04)", eps, delta)
	}
	if got := a.Spent(); got.Eps != 3.0 {
		t.Errorf("spent eps = %v, want 3", got.Eps)
	}
}

func TestAccountantRejectsMismatched(t *testing.T) {
	a, err := NewAccountant(StrongEREE, 0.1, 4.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(Loss{Def: WeakEREE, Alpha: 0.1, Eps: 1}); err == nil {
		t.Error("wrong definition accepted")
	}
	if err := a.Spend(Loss{Def: StrongEREE, Alpha: 0.2, Eps: 1}); err == nil {
		t.Error("wrong alpha accepted")
	}
	if err := a.Spend(Loss{Def: StrongEREE, Alpha: 0.1, Eps: 1, Delta: 0.01}); err == nil {
		t.Error("delta spend against zero delta budget accepted")
	}
}

func TestNeighborDistance(t *testing.T) {
	// x=100 -> y=110 at alpha=0.1 is one step.
	if got := NeighborDistance(100, 110, 0.1); got != 1 {
		t.Errorf("distance(100,110) = %d, want 1", got)
	}
	// Two steps: 100 -> 121.
	if got := NeighborDistance(100, 121, 0.1); got != 2 {
		t.Errorf("distance(100,121) = %d, want 2", got)
	}
	// Symmetric.
	if NeighborDistance(121, 100, 0.1) != NeighborDistance(100, 121, 0.1) {
		t.Error("distance not symmetric")
	}
	// Same size: 0.
	if got := NeighborDistance(50, 50, 0.1); got != 0 {
		t.Errorf("distance(50,50) = %d, want 0", got)
	}
	// Just over one step: 100 -> 111 needs 2.
	if got := NeighborDistance(100, 111, 0.1); got != 2 {
		t.Errorf("distance(100,111) = %d, want 2", got)
	}
}

func TestNeighborDistanceProperty(t *testing.T) {
	// Property: (1+alpha)^(d-1) < y/x <= (1+alpha)^d for the returned d >= 1.
	f := func(xRaw uint16, yRaw uint32, aRaw uint8) bool {
		x := float64(xRaw%1000) + 1
		y := float64(yRaw%100000) + 1
		alpha := 0.01 + float64(aRaw%20)/100
		if x > y {
			x, y = y, x
		}
		d := NeighborDistance(x, y, alpha)
		if x == y {
			return d == 0
		}
		ratio := y / x
		upper := math.Pow(1+alpha, float64(d))
		lower := math.Pow(1+alpha, float64(d-1))
		return ratio <= upper*(1+1e-9) && ratio > lower*(1-1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBayesFactorBound(t *testing.T) {
	if got := BayesFactorBound(0.5, 3); got != 1.5 {
		t.Errorf("bound = %v, want 1.5", got)
	}
	// Section 7.2: sizes x and (1+alpha)^k x are distinguishable with
	// log-odds at most eps*k.
	got := SizeInferenceBound(100, 100*math.Pow(1.1, 4), 0.1, 0.5)
	if math.Abs(got-2.0) > 1e-9 {
		t.Errorf("size inference bound = %v, want 2.0", got)
	}
}

func TestDeltaAtDistance(t *testing.T) {
	// d=1 recovers delta.
	if got := DeltaAtDistance(1, 0.01, 1); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("delta at d=1 = %v, want 0.01", got)
	}
	// Grows geometrically and caps at 1.
	d5 := DeltaAtDistance(1, 0.01, 5)
	if d5 <= DeltaAtDistance(1, 0.01, 2) {
		t.Error("delta amplification not increasing in distance")
	}
	if got := DeltaAtDistance(2, 0.05, 20); got != 1 {
		t.Errorf("amplified delta should cap at 1, got %v", got)
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2()
	if len(rows) != 6 {
		t.Fatalf("Table 2 has %d rows, want 6", len(rows))
	}
	byKey := map[[2]float64]float64{}
	for _, r := range rows {
		byKey[[2]float64{r.Alpha, r.Delta}] = r.MinEps
		if r.MinEps <= 0 {
			t.Errorf("min eps for alpha=%v delta=%v is %v", r.Alpha, r.Delta, r.MinEps)
		}
	}
	// delta=5e-4 rows reproduce the paper's printed values.
	if got := byKey[[2]float64{0.01, 5e-4}]; math.Abs(got-0.15) > 0.01 {
		t.Errorf("min eps(0.01, 5e-4) = %v, paper prints 0.15", got)
	}
	if got := byKey[[2]float64{0.10, 5e-4}]; math.Abs(got-1.45) > 0.01 {
		t.Errorf("min eps(0.10, 5e-4) = %v, paper prints 1.45", got)
	}
	// Monotone in alpha for each delta.
	if !(byKey[[2]float64{0.01, 0.05}] < byKey[[2]float64{0.10, 0.05}] &&
		byKey[[2]float64{0.10, 0.05}] < byKey[[2]float64{0.20, 0.05}]) {
		t.Error("min eps not increasing in alpha at delta=0.05")
	}
	// Smaller delta requires larger eps.
	if !(byKey[[2]float64{0.10, 5e-4}] > byKey[[2]float64{0.10, 0.05}]) {
		t.Error("min eps not decreasing in delta")
	}
}

func TestEdgeDPLeakage(t *testing.T) {
	// Section 6: at eps=1, p=0.01 the noise is at most ~4.6 ("at most 5").
	got := EdgeDPLeakage(1, 0.01)
	if got < 4.5 || got > 5 {
		t.Errorf("leakage bound = %v, want ~4.6", got)
	}
	// The bound is absolute: it does not grow with establishment size,
	// which is exactly why Definition 4.2 fails under edge-DP.
}

func TestPartitionString(t *testing.T) {
	if DistinctEstablishments.String() == "" || DistinctWorkersSharedEstablishments.String() == "" {
		t.Error("partition strings empty")
	}
}

func TestNewAccountantValidates(t *testing.T) {
	if _, err := NewAccountant(StrongEREE, 0, 1, 0); err == nil {
		t.Error("alpha=0 accepted for ER-EE accountant")
	}
	if _, err := NewAccountant(StrongEREE, 0.1, 0, 0); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestImplies(t *testing.T) {
	if !Implies(StrongEREE, WeakEREE) {
		t.Error("strong ER-EE privacy should imply weak")
	}
	if Implies(WeakEREE, StrongEREE) {
		t.Error("weak must not imply strong")
	}
	if !Implies(EdgeDP, EdgeDP) {
		t.Error("definitions should imply themselves")
	}
	if Implies(NodeDP, StrongEREE) || Implies(EdgeDP, WeakEREE) {
		t.Error("graph-DP definitions carry no alpha and must not cross-spend")
	}
}

func TestAccountantAcceptsImpliedDefinition(t *testing.T) {
	a, err := NewAccountant(WeakEREE, 0.1, 4.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A strong-ER-EE release (workplace-only marginal) charged against a
	// weak-ER-EE budget must be accepted.
	if err := a.Spend(Loss{Def: StrongEREE, Alpha: 0.1, Eps: 1}); err != nil {
		t.Fatalf("strong release rejected by weak accountant: %v", err)
	}
	// The reverse direction must still be rejected.
	s, err := NewAccountant(StrongEREE, 0.1, 4.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Spend(Loss{Def: WeakEREE, Alpha: 0.1, Eps: 1}); err == nil {
		t.Error("weak release accepted by strong accountant")
	}
}

func TestAccountantConcurrentSpend(t *testing.T) {
	// 8 goroutines × 16 spends of ε=1 against a budget of 100: exactly
	// 100 spends must succeed and 28 must be rejected, and the spent
	// total must be the exact sequential composition of the successes.
	a, err := NewAccountant(StrongEREE, 0.1, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	loss := Loss{Def: StrongEREE, Alpha: 0.1, Eps: 1}
	var wg sync.WaitGroup
	var accepted atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				if err := a.Spend(loss); err == nil {
					accepted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if accepted.Load() != 100 {
		t.Errorf("accepted %d spends, want exactly 100", accepted.Load())
	}
	if got := a.Spent().Eps; got != 100 {
		t.Errorf("spent eps = %g, want 100", got)
	}
	if got := a.Releases(); got != 100 {
		t.Errorf("releases = %d, want 100", got)
	}
}

func TestAccountantSpendAllAtomic(t *testing.T) {
	a, err := NewAccountant(StrongEREE, 0.1, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := Loss{Def: StrongEREE, Alpha: 0.1, Eps: 2}
	// Batch of three ε=2 losses exceeds the budget of 5: nothing may be
	// charged.
	if err := a.SpendAll([]Loss{l, l, l}); err == nil {
		t.Fatal("over-budget batch accepted")
	}
	if got := a.Spent().Eps; got != 0 {
		t.Fatalf("failed batch left %g eps spent, want 0", got)
	}
	// A fitting batch charges everything.
	if err := a.SpendAll([]Loss{l, l}); err != nil {
		t.Fatal(err)
	}
	if got := a.Spent().Eps; got != 4 {
		t.Fatalf("spent eps = %g, want 4", got)
	}
	if got := a.Releases(); got != 2 {
		t.Fatalf("releases = %d, want 2", got)
	}
}
