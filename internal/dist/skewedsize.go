package dist

import (
	"fmt"
	"math"
)

// SkewedSize is the establishment-size mixture of the synthetic LODES
// generator: with probability TailProb a Pareto tail draw, otherwise a
// log-normal body draw, rounded to an integer employment of at least 1.
// The mixture reproduces the two structural facts the paper's
// evaluation depends on: a small median establishment and a heavy right
// tail whose largest members dominate their cells.
type SkewedSize struct {
	Body     LogNormal
	Tail     Pareto
	TailProb float64
}

// NewSkewedSize returns the mixture. It panics unless tailProb is a
// probability.
func NewSkewedSize(body LogNormal, tail Pareto, tailProb float64) SkewedSize {
	if !(tailProb >= 0 && tailProb <= 1) {
		panic(fmt.Sprintf("dist: SkewedSize tail probability must be in [0,1], got %v", tailProb))
	}
	return SkewedSize{Body: body, Tail: tail, TailProb: tailProb}
}

// Sample draws one establishment size (an integer >= 1). The mixture
// indicator is drawn first, then the component, so a stream position
// maps to a fixed draw regardless of which component is taken.
func (m SkewedSize) Sample(s *Stream) int {
	var v float64
	if s.Float64() < m.TailProb {
		v = m.Tail.Sample(s)
	} else {
		v = m.Body.Sample(s)
	}
	// Clamp before converting: float→int overflow is implementation-
	// dependent in Go, and a shallow Pareto tail (alpha < 1) can draw
	// past the platform's int range.
	if v >= math.MaxInt {
		return math.MaxInt
	}
	size := int(v + 0.5)
	if size < 1 {
		return 1
	}
	return size
}
