// Package bipartite views ER-EE data as the bipartite employer–employee
// graph of Section 6 of the paper: employers and employees are nodes,
// each job is an edge. Edge- and node-differential privacy for this graph
// are the two standard baselines the paper evaluates against, and the
// θ-truncation projection implemented here is the standard technique for
// bounding sensitivity under node-differential privacy.
package bipartite

import (
	"fmt"

	"repro/internal/table"
)

// Graph is the employer–employee bipartite graph induced by a job table:
// one employer node per entity, one employee node per record (the paper
// assumes each worker holds exactly one job), and one edge per job.
type Graph struct {
	degrees []int // jobs per employer, indexed by entity ID
	edges   int
}

// FromTable builds the graph from a job table whose entity column holds
// employer IDs. Records with negative entities are rejected: every job
// must belong to an employer.
func FromTable(t *table.Table) (*Graph, error) {
	n := t.NumEntities()
	g := &Graph{degrees: make([]int, n)}
	for row := 0; row < t.NumRows(); row++ {
		e := t.Entity(row)
		if e < 0 {
			return nil, fmt.Errorf("bipartite: job record %d has no employer", row)
		}
		g.degrees[e]++
		g.edges++
	}
	return g, nil
}

// NumEmployers returns the number of employer nodes (including employers
// with zero jobs, if the entity space has gaps).
func (g *Graph) NumEmployers() int { return len(g.degrees) }
