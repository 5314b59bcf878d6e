package suppress

import (
	"fmt"

	"repro/internal/table"
)

// FromMarginal converts a two-attribute marginal into a suppression
// table: the first query attribute indexes rows, the second columns, and
// each cell carries the contributor statistics the dominance rules need
// (computed by the marginal engine's per-entity tracking).
func FromMarginal(m *table.Marginal) (*Table, error) {
	q := m.Query
	if len(q.Attrs()) != 2 {
		return nil, fmt.Errorf("suppress: need a two-attribute marginal, got %d attributes", len(q.Attrs()))
	}
	rows := q.Schema().Attr(q.Attrs()[0]).Size()
	cols := q.Schema().Attr(q.Attrs()[1]).Size()
	cells := make([][]Cell, rows)
	for r := 0; r < rows; r++ {
		cells[r] = make([]Cell, cols)
		for c := 0; c < cols; c++ {
			key := q.CellKey(r, c)
			cells[r][c] = Cell{
				Count:        m.Counts[key],
				Contributors: int(m.EntityCount[key]),
				Largest:      m.MaxEntityContribution[key],
				Second:       m.SecondEntityContribution[key],
			}
		}
	}
	return NewTable(cells)
}
