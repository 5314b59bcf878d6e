package dist

import (
	"math"
	"testing"
)

// The batch-sampler stream-order contract: Fill(dst, s) must consume the
// stream exactly as len(dst) scalar Sample calls would, and FillSplit
// must reproduce the per-index child-stream family bit for bit. The
// release pipeline's determinism against the scalar golden path rests
// entirely on these equivalences.

// fillSamplers enumerates every distribution with a concrete Fill
// method, plus a wrapper that forces the generic interface fallback.
func fillSamplers() map[string]Sampler {
	return map[string]Sampler{
		"laplace":    NewLaplace(1.7),
		"gencauchy":  GenCauchy{},
		"gapuniform": NewGapUniform(0.1, 0.25),
	}
}

// opaque hides the concrete type so Fill/FillSplit take their generic
// fallback path.
type opaque struct{ inner Sampler }

func (o opaque) Sample(s *Stream) float64 { return o.inner.Sample(s) }

func TestFillMatchesScalarSamples(t *testing.T) {
	for name, m := range fillSamplers() {
		for _, n := range []int{0, 1, 7, 256} {
			want := make([]float64, n)
			s := NewStreamFromSeed(101)
			for i := range want {
				want[i] = m.Sample(s)
			}
			got := make([]float64, n)
			Fill(got, m, NewStreamFromSeed(101))
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d: Fill[%d] = %v, want %v (stream-order contract broken)",
						name, n, i, got[i], want[i])
				}
			}
			// The generic fallback must agree with the fast path.
			gotOpaque := make([]float64, n)
			Fill(gotOpaque, opaque{m}, NewStreamFromSeed(101))
			for i := range gotOpaque {
				if gotOpaque[i] != want[i] {
					t.Fatalf("%s n=%d: generic Fill[%d] = %v, want %v", name, n, i, gotOpaque[i], want[i])
				}
			}
		}
	}
}

// TestFillContinuesStream checks Fill leaves the stream positioned where
// the scalar calls would: two back-to-back Fills equal one big one.
func TestFillContinuesStream(t *testing.T) {
	l := NewLaplace(1)
	whole := make([]float64, 64)
	Fill(whole, l, NewStreamFromSeed(7))
	s := NewStreamFromSeed(7)
	first, second := make([]float64, 24), make([]float64, 40)
	Fill(first, l, s)
	Fill(second, l, s)
	for i := range first {
		if first[i] != whole[i] {
			t.Fatalf("first half diverges at %d", i)
		}
	}
	for i := range second {
		if second[i] != whole[24+i] {
			t.Fatalf("second half diverges at %d", i)
		}
	}
}

func TestFillSplitMatchesScalarSplitIndex(t *testing.T) {
	for name, m := range fillSamplers() {
		parent := NewStreamFromSeed(55)
		const base, n = 13, 200
		want := make([]float64, n)
		for j := range want {
			want[j] = m.Sample(parent.SplitIndex("cell", base+j))
		}
		got := make([]float64, n)
		FillSplit(got, m, parent, "cell", base)
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("%s: FillSplit[%d] = %v, want %v", name, j, got[j], want[j])
			}
		}
		gotOpaque := make([]float64, n)
		FillSplit(gotOpaque, opaque{m}, parent, "cell", base)
		for j := range gotOpaque {
			if gotOpaque[j] != want[j] {
				t.Fatalf("%s: generic FillSplit[%d] = %v, want %v", name, j, gotOpaque[j], want[j])
			}
		}
	}
}

// TestSplitIndexIntoMatchesSplitIndex pins the zero-alloc derivation:
// identical identity, draw sequence, and reset of the Box–Muller spare.
func TestSplitIndexIntoMatchesSplitIndex(t *testing.T) {
	parent := NewStreamFromSeed(9)
	var child Stream
	for i := 0; i < 50; i++ {
		want := parent.SplitIndex("x", i)
		parent.SplitIndexInto(&child, "x", i)
		for d := 0; d < 4; d++ {
			if g, w := child.Uint64(), want.Uint64(); g != w {
				t.Fatalf("i=%d draw=%d: %d != %d", i, d, g, w)
			}
		}
	}
	// A dirty spare must not leak into the next derivation.
	parent.SplitIndexInto(&child, "norm", 0)
	child.NormFloat64() // leaves a cached spare behind
	parent.SplitIndexInto(&child, "norm", 0)
	want := parent.SplitIndex("norm", 0)
	for d := 0; d < 4; d++ {
		if g, w := child.NormFloat64(), want.NormFloat64(); g != w {
			t.Fatalf("spare leaked: draw %d: %v != %v", d, g, w)
		}
	}
}

func TestSplitIndexIntoPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var child Stream
	NewStreamFromSeed(1).SplitIndexInto(&child, "x", -1)
}

// TestSplitIndexIntoDoesNotAllocate is the point of the API: deriving a
// per-cell stream in a hot loop must not touch the heap.
func TestSplitIndexIntoDoesNotAllocate(t *testing.T) {
	parent := NewStreamFromSeed(3)
	var child Stream
	allocs := testing.AllocsPerRun(200, func() {
		parent.SplitIndexInto(&child, "cell", 7)
		_ = child.Uint64()
	})
	if allocs != 0 {
		t.Fatalf("SplitIndexInto allocates %v per run, want 0", allocs)
	}
}

// Fill draws len(dst) variates from the sampler into the caller-owned
// buffer, consuming the stream exactly as len(dst) scalar Sample calls
// would — dst[i] is the (i+1)-th draw, bit for bit. The common noise
// distributions are dispatched to their concrete Fill methods so the
// inner loop pays no interface call per draw; anything else falls back
// to the scalar loop (which is still stream-order identical).
func Fill(dst []float64, m Sampler, s *Stream) {
	switch d := m.(type) {
	case Laplace:
		d.Fill(dst, s)
	case GenCauchy:
		d.Fill(dst, s)
	case GapUniform:
		d.Fill(dst, s)
	default:
		for i := range dst {
			dst[i] = m.Sample(s)
		}
	}
}

// Fill draws len(dst) variates into the caller-owned buffer, consuming
// the stream exactly as len(dst) scalar Sample calls would: dst[i] holds
// the (i+1)-th draw, bit for bit. Batch callers (the release pipeline)
// rely on this equivalence for determinism against the scalar path.
//
// The loop body is the quantile formula with the scale load and the
// in-range check hoisted out of the per-draw path; the expressions are
// exactly Quantile's, so the bit-for-bit contract holds by construction
// (TestFillMatchesScalar pins it).
func (l Laplace) Fill(dst []float64, s *Stream) {
	b := l.B
	for i := range dst {
		p := s.float64Open()
		if p < 0.5 {
			dst[i] = b * math.Log(2*p)
		} else {
			dst[i] = -b * math.Log(2*(1-p))
		}
	}
}

// Fill draws len(dst) variates into the caller-owned buffer, consuming
// the stream exactly as len(dst) scalar Sample calls would (see
// Laplace.Fill for the contract).
func (g GenCauchy) Fill(dst []float64, s *Stream) {
	for i := range dst {
		dst[i] = g.Sample(s)
	}
}
