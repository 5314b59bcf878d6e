package dist

import (
	"math"
	"testing"
)

func TestFloat64Range(t *testing.T) {
	s := NewStreamFromSeed(1)
	for i := 0; i < 10_000; i++ {
		u := s.Float64()
		if !(u >= 0 && u < 1) {
			t.Fatalf("Float64() = %v outside [0,1)", u)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	s := NewStreamFromSeed(2)
	n := 200_000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		u := s.Float64()
		sum += u
		sumSq += u * u
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want 0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v, want %v", variance, 1.0/12)
	}
}

func TestIntNBoundsAndCoverage(t *testing.T) {
	s := NewStreamFromSeed(3)
	seen := make([]int, 7)
	for i := 0; i < 7_000; i++ {
		v := s.IntN(7)
		if v < 0 || v >= 7 {
			t.Fatalf("IntN(7) = %d", v)
		}
		seen[v]++
	}
	for v, c := range seen {
		if c == 0 {
			t.Errorf("IntN(7) never produced %d", v)
		}
	}
}

func TestIntNPanicsOnNonPositive(t *testing.T) {
	s := NewStreamFromSeed(4)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("IntN(%d) did not panic", n)
				}
			}()
			s.IntN(n)
		}()
	}
}

func TestNormFloat64Distribution(t *testing.T) {
	s := NewStreamFromSeed(5)
	n := 50_000
	sample := make([]float64, n)
	var sum, sumSq float64
	for i := range sample {
		z := s.NormFloat64()
		sample[i] = z
		sum += z
		sumSq += z * z
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want 1", variance)
	}
	stdNormalCDF := func(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }
	if _, p, err := KolmogorovSmirnov(sample, stdNormalCDF); err != nil {
		t.Fatal(err)
	} else if p < 1e-4 {
		t.Errorf("KS p-value %v: NormFloat64 does not look normal", p)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	a, b := NewStreamFromSeed(99), NewStreamFromSeed(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with the same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := NewStreamFromSeed(0), NewStreamFromSeed(1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 draws collided across adjacent seeds", same)
	}
}

// TestSplitPurity pins the core contract: Split is a function of the
// parent's identity, not of its draw position, so subsystems can
// re-derive the same labeled stream at any time.
func TestSplitPurity(t *testing.T) {
	parent := NewStreamFromSeed(7)
	first := parent.Split("workers")
	parent.Float64() // advance the parent between derivations
	parent.IntN(10)
	second := parent.Split("workers")
	for i := 0; i < 100; i++ {
		if first.Uint64() != second.Uint64() {
			t.Fatalf("Split(label) depends on parent draw position (draw %d)", i)
		}
	}
}

func TestSplitIndexPurity(t *testing.T) {
	parent := NewStreamFromSeed(8)
	first := parent.SplitIndex("trial", 3)
	parent.Float64()
	second := parent.SplitIndex("trial", 3)
	for i := 0; i < 100; i++ {
		if first.Uint64() != second.Uint64() {
			t.Fatalf("SplitIndex depends on parent draw position (draw %d)", i)
		}
	}
}

func TestSplitIndexPanicsOnNegative(t *testing.T) {
	// Index −1 would wrap uint64(i)+1 to 0 and alias Split(label),
	// silently correlating streams that must be independent.
	defer func() {
		if recover() == nil {
			t.Error("SplitIndex(label, -1) did not panic")
		}
	}()
	NewStreamFromSeed(12).SplitIndex("trial", -1)
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a, b := NewStreamFromSeed(9), NewStreamFromSeed(9)
	a.Split("x")
	a.SplitIndex("y", 4)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("deriving children advanced the parent stream")
		}
	}
}

func TestSplitLabelsDistinct(t *testing.T) {
	parent := NewStreamFromSeed(10)
	streams := []*Stream{
		parent.Split("a"),
		parent.Split("b"),
		parent.Split("ab"),
		parent.SplitIndex("a", 0),
		parent.SplitIndex("a", 1),
		parent.Split("a").Split("a"),
	}
	draws := make([]uint64, len(streams))
	for i, s := range streams {
		draws[i] = s.Uint64()
	}
	for i := range draws {
		for j := i + 1; j < len(draws); j++ {
			if draws[i] == draws[j] {
				t.Errorf("streams %d and %d produced the same first draw", i, j)
			}
		}
	}
}

// TestSplitIndependence checks that a child's draw sequence is
// statistically independent of its parent's and of its siblings': the
// empirical correlation over a long run must be near zero.
func TestSplitIndependence(t *testing.T) {
	parent := NewStreamFromSeed(11)
	childA := parent.Split("a")
	childB := parent.Split("b")
	n := 50_000
	seqs := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		seqs[0][i] = parent.Float64()
		seqs[1][i] = childA.Float64()
		seqs[2][i] = childB.Float64()
	}
	for i := range seqs {
		for j := i + 1; j < len(seqs); j++ {
			if r := correlation(seqs[i], seqs[j]); math.Abs(r) > 0.02 {
				t.Errorf("correlation(seq %d, seq %d) = %v, want ~0", i, j, r)
			}
		}
	}
}

func correlation(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, syy, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
		sxy += x[i] * y[i]
	}
	cov := sxy/n - sx/n*sy/n
	vx := sxx/n - sx/n*sx/n
	vy := syy/n - sy/n*sy/n
	return cov / math.Sqrt(vx*vy)
}

// TestSkipEqualsDraws pins Skip's definition: Skip(n) leaves a stream
// exactly where n Uint64 draws would. Small n are checked against the
// draws themselves; for n = 2⁴⁰+3 the state is checked against n
// additions of the increment, summed by doubling, and the split
// Skip(2⁴⁰) plus three draws must agree with it too.
func TestSkipEqualsDraws(t *testing.T) {
	for _, n := range []uint64{0, 1, 5, 1<<40 + 3} {
		skipped := NewStreamFromSeed(13)
		skipped.Skip(n)
		want := NewStreamFromSeed(13)
		if n < 1<<20 {
			for i := uint64(0); i < n; i++ {
				want.Uint64()
			}
		} else {
			var sum uint64
			for inc, k := uint64(golden), n; k > 0; inc, k = inc+inc, k>>1 {
				if k&1 == 1 {
					sum += inc
				}
			}
			want.state += sum
			split := NewStreamFromSeed(13)
			split.Skip(1 << 40)
			for i := 0; i < 3; i++ {
				split.Uint64()
			}
			if split.state != want.state {
				t.Fatalf("Skip(2⁴⁰) plus 3 draws is at state %#x, want %#x", split.state, want.state)
			}
		}
		for i := 0; i < 8; i++ {
			if got, w := skipped.Uint64(), want.Uint64(); got != w {
				t.Fatalf("Skip(%d): draw %d after it = %#x, want %#x", n, i, got, w)
			}
		}
	}
}

// TestSkipKeepsNormalSpare: Skip moves only the uniform position, so a
// Box–Muller spare cached before it is still the next normal after it.
func TestSkipKeepsNormalSpare(t *testing.T) {
	a, b := NewStreamFromSeed(14), NewStreamFromSeed(14)
	a.NormFloat64()
	b.NormFloat64()
	a.Skip(5)
	if got, want := a.NormFloat64(), b.NormFloat64(); got != want {
		t.Fatalf("normal after Skip = %v, want the cached spare %v", got, want)
	}
	for i := 0; i < 5; i++ {
		b.Uint64()
	}
	if got, want := a.Uint64(), b.Uint64(); got != want {
		t.Fatalf("draw after the spare = %#x, want %#x (five draws on)", got, want)
	}
}
