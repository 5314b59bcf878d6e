// OnTheMap-style area comparison (Section 3.2 of the paper).
//
// The OnTheMap web tool lets a user rank areas (e.g. Census places) by
// work-area job count, descending — for instance, a business deciding
// where to open a new establishment. This example produces that ranked
// list from each mechanism's release and measures how faithfully each
// preserves the SDL publication's order (Spearman's rank correlation),
// the paper's Ranking 1 task restricted to places.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro"
)

func main() {
	log.SetFlags(0)

	data, err := eree.Generate(eree.TestDataConfig(), 123)
	if err != nil {
		log.Fatal(err)
	}
	q, err := eree.NewQuery(data, eree.AttrPlace)
	if err != nil {
		log.Fatal(err)
	}
	truth := eree.ComputeMarginal(data, q)

	// The published (SDL) ranking users see today.
	sys, err := eree.NewSDLSystem(eree.DefaultSDLConfig(), data, eree.NewStream(1))
	if err != nil {
		log.Fatal(err)
	}
	sdlRel, err := sys.ReleaseMarginal(data.WorkerFull, q, eree.NewStream(2))
	if err != nil {
		log.Fatal(err)
	}

	pub := eree.NewPublisher(data)
	mechs := []eree.Request{
		{Attrs: []string{eree.AttrPlace}, Mechanism: eree.MechSmoothLaplace, Alpha: 0.1, Eps: 1, Delta: 0.05},
		{Attrs: []string{eree.AttrPlace}, Mechanism: eree.MechSmoothGamma, Alpha: 0.1, Eps: 1},
		{Attrs: []string{eree.AttrPlace}, Mechanism: eree.MechLogLaplace, Alpha: 0.1, Eps: 1},
	}

	fmt.Println("Area Comparison: places ranked by job count, eps=1, alpha=0.1")
	fmt.Printf("%-40s %10s\n", "mechanism", "Spearman vs SDL ranking")
	for i, req := range mechs {
		rel, err := pub.ReleaseMarginal(nil, req, eree.NewStream(int64(10+i)), nil)
		if err != nil {
			log.Fatal(err)
		}
		rho := eree.Spearman(rel.Noisy, sdlRel)
		fmt.Printf("%-40s %10.3f\n", req.Mechanism, rho)

		if req.Mechanism == eree.MechSmoothLaplace {
			printTop(q, rel.Noisy, truth, 10)
		}
	}
	fmt.Println("\nAt eps >= 1 the provably private rankings track the published order")
	fmt.Println("closely (the paper's Finding: counts can be used for ranking with")
	fmt.Println("high accuracy for eps >= 1).")
}

func printTop(q *eree.Query, noisy []float64, truth *eree.Marginal, n int) {
	type row struct {
		cell  int
		value float64
	}
	rows := make([]row, len(noisy))
	for i, v := range noisy {
		rows[i] = row{i, v}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].value > rows[j].value })
	if len(rows) > n {
		rows = rows[:n]
	}
	fmt.Println("\n  top places by released job count (smooth-laplace):")
	for rank, r := range rows {
		fmt.Printf("  %2d. %-20s %10.0f  (true %d)\n",
			rank+1, q.CellValues(r.cell)[0], r.value, truth.Counts[r.cell])
	}
	fmt.Println()
}
