// Disaster-assistance resource allocation (Section 3.2 of the paper).
//
// FEMA evaluates disaster declarations by dividing a Preliminary Damage
// Assessment by a population count, with a $3.50-per-capita threshold
// (Stafford Act). If job counts were used instead, every job of count
// error would shift the damage threshold by $3.50 — so the social cost of
// a noisy employment release is $3.50 × L1 error.
//
// This example releases per-place job counts under each mechanism and
// prices the error of each, against the SDL baseline's error.
package main

import (
	"fmt"
	"log"
	"math"

	"repro"
)

const costPerJob = 3.50 // Stafford Act per-capita indicator, 2013 adjustment

func main() {
	log.SetFlags(0)

	data, err := eree.Generate(eree.TestDataConfig(), 99)
	if err != nil {
		log.Fatal(err)
	}
	pub := eree.NewPublisher(data)

	// The allocation variable: total jobs per place.
	attrs := []string{eree.AttrPlace}
	q, err := eree.NewQuery(data, attrs...)
	if err != nil {
		log.Fatal(err)
	}
	truth := eree.ComputeMarginal(data, q)

	// SDL baseline error.
	sys, err := eree.NewSDLSystem(eree.DefaultSDLConfig(), data, eree.NewStream(1))
	if err != nil {
		log.Fatal(err)
	}
	sdlRel, err := sys.ReleaseMarginal(data.WorkerFull, q, eree.NewStream(2))
	if err != nil {
		log.Fatal(err)
	}
	sdlL1 := l1(sdlRel, truth.Counts)

	fmt.Println("FEMA-style allocation: misallocation cost at $3.50 per job of error")
	fmt.Printf("%-48s %14s %16s\n", "mechanism", "L1 error", "social cost")
	fmt.Printf("%-48s %14.0f %16s\n", "input-noise-infusion (current SDL)", sdlL1, dollars(sdlL1))

	requests := []eree.Request{
		{Attrs: attrs, Mechanism: eree.MechSmoothLaplace, Alpha: 0.1, Eps: 2, Delta: 0.05},
		{Attrs: attrs, Mechanism: eree.MechSmoothGamma, Alpha: 0.1, Eps: 2},
		{Attrs: attrs, Mechanism: eree.MechLogLaplace, Alpha: 0.1, Eps: 2},
		{Attrs: attrs, Mechanism: eree.MechTruncatedLaplace, Eps: 2, Theta: 100},
	}
	for i, req := range requests {
		rel, err := pub.ReleaseMarginal(nil, req, eree.NewStream(int64(10+i)), nil)
		if err != nil {
			log.Fatal(err)
		}
		e := l1(rel.Noisy, truth.Counts)
		fmt.Printf("%-48s %14.0f %16s\n", rel.MechanismName, e, dollars(e))
	}
	fmt.Println("\nProvably private mechanisms price out comparably to SDL; the")
	fmt.Println("node-DP baseline's truncation bias costs an order of magnitude more.")
}

func l1(rel []float64, truth []int64) float64 {
	var sum float64
	for i := range rel {
		sum += math.Abs(rel[i] - float64(truth[i]))
	}
	return sum
}

func dollars(l1 float64) string {
	return fmt.Sprintf("$%.0f", l1*costPerJob)
}
