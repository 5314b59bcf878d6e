package dist

// Sampler is anything that draws one variate from a stream. Every
// distribution in this package implements it; FillSplit accepts it so
// callers can batch-sample without knowing the concrete distribution.
type Sampler interface {
	Sample(*Stream) float64
}

// FillSplit draws len(dst) variates where draw j comes from the child
// stream parent.SplitIndex(label, base+j) — the per-cell stream family
// the release pipeline uses — without allocating a stream per draw.
// dst[j] is bit-identical to m.Sample(parent.SplitIndex(label, base+j)),
// so chunked batch callers produce exactly the scalar pipeline's output.
func FillSplit(dst []float64, m Sampler, parent *Stream, label string, base int) {
	// The typed branches call the concrete Sample — one source of truth
	// per distribution for the draw itself — with static dispatch.
	var child Stream
	switch d := m.(type) {
	case Laplace:
		for j := range dst {
			parent.SplitIndexInto(&child, label, base+j)
			dst[j] = d.Sample(&child)
		}
	case GenCauchy:
		for j := range dst {
			parent.SplitIndexInto(&child, label, base+j)
			dst[j] = d.Sample(&child)
		}
	default:
		for j := range dst {
			parent.SplitIndexInto(&child, label, base+j)
			dst[j] = m.Sample(&child)
		}
	}
}
