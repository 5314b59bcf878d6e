package eree_test

import (
	"fmt"
	"log"

	eree "repro"
)

// Generate a synthetic snapshot and release a provably private marginal.
func Example() {
	data, err := eree.Generate(eree.TestDataConfig(), 42)
	if err != nil {
		log.Fatal(err)
	}
	pub := eree.NewPublisher(data)
	rel, err := pub.ReleaseMarginal(nil, eree.Request{
		Attrs:     eree.WorkplaceAttrs(),
		Mechanism: eree.MechSmoothGamma,
		Alpha:     0.1,
		Eps:       2,
	}, eree.NewStream(7), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rel.Loss)
	fmt.Println(len(rel.Noisy) == rel.Query.NumCells())
	// Output:
	// ER-EE-privacy(alpha=0.1, eps=2)
	// true
}

// Worker attributes shift the guarantee to weak ER-EE privacy and charge
// the d·ε marginal surcharge.
func ExamplePublisher_weakPrivacy() {
	data, err := eree.Generate(eree.TestDataConfig(), 42)
	if err != nil {
		log.Fatal(err)
	}
	rel, err := eree.NewPublisher(data).ReleaseMarginal(nil, eree.Request{
		Attrs:     []string{eree.AttrPlace, eree.AttrSex},
		Mechanism: eree.MechSmoothLaplace,
		Alpha:     0.1,
		Eps:       1.5,
		Delta:     0.05,
	}, eree.NewStream(3), nil)
	if err != nil {
		log.Fatal(err)
	}
	// |sex| = 2, so the marginal costs 2 * 1.5 = 3.
	fmt.Println(rel.Loss)
	// Output:
	// Weak ER-EE privacy(alpha=0.1, eps=3, delta=0.1)
}

// Table 1: which definitions satisfy which statutory requirements.
func ExampleSatisfies() {
	fmt.Println(eree.Satisfies(eree.InputNoiseInfusion, 0)) // individuals
	fmt.Println(eree.Satisfies(eree.StrongEREE, 1))         // employer size
	fmt.Println(eree.Satisfies(eree.WeakEREE, 1))           // employer size
	// Output:
	// No
	// Yes
	// Yes*
}

// Allocate one privacy budget across several planned releases.
func ExamplePlanReleases() {
	plan, err := eree.PlanReleases(eree.WeakEREE, 0.1, 8, 0, []eree.ReleaseRequest{
		{Name: "workplace", Weight: 1, WorkerDomainSize: 1},
		{Name: "by-sex", Weight: 1, WorkerDomainSize: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range plan.Releases {
		fmt.Printf("%s: marginal eps %.1f, per-cell eps %.1f\n", r.Name, r.MarginalEps, r.CellEps)
	}
	// Output:
	// workplace: marginal eps 4.0, per-cell eps 4.0
	// by-sex: marginal eps 4.0, per-cell eps 2.0
}

// Spearman rank correlation, the paper's ranking-fidelity metric.
func ExampleSpearman() {
	sdlRanking := []float64{100, 80, 60, 40, 20}
	dpRanking := []float64{98, 83, 55, 44, 18} // same order, noisy values
	fmt.Printf("%.2f\n", eree.Spearman(sdlRanking, dpRanking))
	// Output:
	// 1.00
}
