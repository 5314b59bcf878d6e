package dist

import (
	"math"
)

// Stream is a deterministic splittable random stream. The identity of a
// stream — its seed and the chain of Split/SplitIndex labels that
// produced it — fully determines its draw sequence; advancing the
// stream never changes its identity, so children derived from it are
// reproducible regardless of draw order. See the package documentation
// for the full contract.
//
// A Stream is not safe for concurrent use; give each goroutine its own
// Split child instead of sharing one.
type Stream struct {
	// base is the immutable identity; state is the mutable draw
	// position, advanced SplitMix64-style on every draw.
	base  uint64
	state uint64
	// spare holds the second Box–Muller normal between NormFloat64 calls.
	spare    float64
	hasSpare bool
}

// SplitMix64 constants (Steele, Lea & Flood, OOPSLA 2014).
const (
	golden = 0x9E3779B97F4A7C15
	mixA   = 0xBF58476D1CE4E5B9
	mixB   = 0x94D049BB133111EB
)

// mix64 is the SplitMix64 finalizer: a bijective avalanche of the state.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * mixA
	z = (z ^ (z >> 27)) * mixB
	return z ^ (z >> 31)
}

// newStream returns a stream with the given identity, positioned at its
// first draw.
func newStream(base uint64) *Stream {
	return &Stream{base: base, state: base}
}

// NewStreamFromSeed returns the root stream of a seed. The same seed
// always denotes the same stream.
func NewStreamFromSeed(seed int64) *Stream {
	// Finalize the seed so that adjacent seeds (0, 1, 2, …) land on
	// well-separated identities.
	return newStream(mix64(uint64(seed) + golden))
}

// Uint64 returns the next 64 uniformly random bits.
func (s *Stream) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

// Skip moves the stream past n draws in O(1), leaving it exactly where
// n Uint64 calls would: each draw adds golden to the state, so n draws
// add n·golden (mod 2⁶⁴). A cached Box–Muller spare is left as it is.
// Skip is what lets a worker start at any job's draws of a positional
// stream (see DESIGN.md §2).
func (s *Stream) Skip(n uint64) {
	s.state += n * golden
}

// Float64 returns a uniform draw in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// float64Open returns a uniform draw in the open interval (0, 1), for
// inverse-CDF sampling where 0 or 1 would map to an infinity. Using 52
// bits keeps the midpoint offset exact: the largest value is 1 − 2⁻⁵³
// and the smallest 2⁻⁵³, never 0 or 1 (53 bits would round the top
// value up to exactly 1).
func (s *Stream) float64Open() float64 {
	return (float64(s.Uint64()>>12) + 0.5) / (1 << 52)
}

// IntN returns a uniform draw from {0, …, n−1}. It panics if n <= 0.
func (s *Stream) IntN(n int) int {
	if n <= 0 {
		panic("dist: IntN requires n > 0")
	}
	// Rejection-sample the top of the range away so every residue is
	// exactly equally likely.
	un := uint64(n)
	limit := math.MaxUint64 - math.MaxUint64%un
	for {
		v := s.Uint64()
		if v < limit {
			return int(v % un)
		}
	}
}

// NormFloat64 returns a standard normal draw (Box–Muller; the second
// variate of each pair is cached).
func (s *Stream) NormFloat64() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	r := math.Sqrt(-2 * math.Log(s.float64Open()))
	theta := 2 * math.Pi * s.Float64()
	s.spare = r * math.Sin(theta)
	s.hasSpare = true
	return r * math.Cos(theta)
}

// deriveKey folds data into an identity, FNV-1a style but finalized
// through the SplitMix64 avalanche so single-byte label differences
// flip about half the key bits.
func deriveKey(base uint64, label string, idx uint64) uint64 {
	const fnvPrime = 0x100000001B3
	h := base ^ 0xCBF29CE484222325
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * fnvPrime
	}
	h = (h ^ idx) * fnvPrime
	return mix64(h + golden)
}

// Split returns the child stream the label denotes. Split is a pure
// function of the stream's identity: it does not advance the parent,
// and calling it twice with the same label returns streams with
// identical draw sequences.
func (s *Stream) Split(label string) *Stream {
	return newStream(deriveKey(s.base, label, 0))
}

// SplitIndex returns the child stream the (label, index) pair denotes,
// for families of independent streams such as per-trial or per-cell
// noise. Like Split it is pure and leaves the parent untouched. It
// panics on negative indices: index −1 would alias Split(label),
// silently correlating streams that must be independent.
func (s *Stream) SplitIndex(label string, i int) *Stream {
	if i < 0 {
		panic("dist: SplitIndex requires a non-negative index")
	}
	return newStream(deriveKey(s.base, label, uint64(i)+1))
}

// SplitIndexInto is SplitIndex writing the child into a caller-owned
// Stream instead of allocating one, for hot loops that derive a stream
// per cell. The child's identity and draw sequence are exactly those of
// SplitIndex(label, i); any previous state in dst (position, cached
// Box–Muller spare) is overwritten, as if dst were freshly created.
func (s *Stream) SplitIndexInto(dst *Stream, label string, i int) {
	if i < 0 {
		panic("dist: SplitIndexInto requires a non-negative index")
	}
	key := deriveKey(s.base, label, uint64(i)+1)
	dst.base = key
	dst.state = key
	dst.spare = 0
	dst.hasSpare = false
}
