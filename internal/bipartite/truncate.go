package bipartite

import (
	"fmt"

	"repro/internal/table"
)

// TruncationResult describes the outcome of a θ-truncation projection.
type TruncationResult struct {
	// Theta is the degree bound applied.
	Theta int
	// Kept is the projected table containing only jobs at employers with
	// degree <= Theta. A release's summary (core.Release.Truncation)
	// leaves it nil.
	Kept *table.Table
	// RemovedEmployers is the number of employer nodes deleted.
	RemovedEmployers int
	// RemovedEdges is the number of job records deleted.
	RemovedEdges int
}

// Truncate performs the node-DP projection of Kasiviswanathan et al.
// (reference [32] in the paper): remove every employer whose degree
// exceeds theta, together with all its edges. Edge-counting queries on
// the projected table have node sensitivity theta, so they can be
// answered with Laplace(theta/ε) noise — at the cost of deleting every
// large establishment, which is precisely the bias the paper's Finding 6
// measures.
//
// Truncate copies the table. Releases compute the same truncated
// marginal without a copy (table.Index.ComputeTruncated), and Truncate
// is the oracle that scan is tested against.
func Truncate(t *table.Table, theta int) (*TruncationResult, error) {
	if theta < 1 {
		return nil, fmt.Errorf("bipartite: truncation threshold must be >= 1, got %d", theta)
	}
	g, err := FromTable(t)
	if err != nil {
		return nil, err
	}
	removedEmployers := 0
	keep := make([]bool, g.NumEmployers())
	for e := range keep {
		if g.degrees[e] <= theta {
			keep[e] = true
		} else {
			removedEmployers++
		}
	}
	kept := t.Filter(func(row int) bool { return keep[t.Entity(row)] })
	return &TruncationResult{
		Theta:            theta,
		Kept:             kept,
		RemovedEmployers: removedEmployers,
		RemovedEdges:     t.NumRows() - kept.NumRows(),
	}, nil
}

// SensitivityAfterTruncation returns the node sensitivity of an
// edge-counting (marginal cell) query on the projected graph: theta,
// since adding or removing one employer changes at most theta edges.
func SensitivityAfterTruncation(theta int) float64 {
	if theta < 1 {
		panic(fmt.Sprintf("bipartite: truncation threshold must be >= 1, got %d", theta))
	}
	return float64(theta)
}
