// Quickstart: generate a synthetic LODES snapshot, release the
// place × industry × ownership employment marginal under (α,ε)-ER-EE
// privacy with the Smooth Gamma mechanism, and compare a few cells
// against the confidential truth.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	log.SetFlags(0)

	// 1. Data. Real LODES inputs are confidential; the generator
	// reproduces their structure (right-skewed establishment sizes,
	// sparse cells, places across four population strata).
	data, err := eree.Generate(eree.TestDataConfig(), 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d establishments, %d jobs, largest establishment %d\n\n",
		data.NumEstablishments(), data.NumJobs(), data.MaxEmployment())

	// 2. Release. alpha=0.1 means an informed attacker cannot pin any
	// establishment's size down to better than a +-10%% window; eps=2 is
	// the paper's baseline privacy-loss parameter.
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
	fmt.Printf("released %d cells under %s\n", len(rel.Noisy), rel.Loss)
	fmt.Printf("mechanism: %s\n\n", rel.MechanismName)

	// 3. Inspect. Because the smooth mechanisms calibrate noise to each
	// cell's largest single-establishment contribution, big aggregate
	// cells are accurate while single-establishment cells are protected.
	fmt.Println("sample cells (released vs confidential truth):")
	shown := 0
	for cell := 0; cell < rel.Query.NumCells() && shown < 8; cell++ {
		if rel.Truth.Counts[cell] < 100 {
			continue
		}
		fmt.Printf("  %-66s %10.1f  (true %d)\n",
			rel.Query.CellString(cell), rel.Noisy[cell], rel.Truth.Counts[cell])
		shown++
	}
}
