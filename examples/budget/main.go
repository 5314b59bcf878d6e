// Annual release planning under a total privacy budget.
//
// A statistical agency publishes several tabulations from the same
// snapshot: the headline place × industry × ownership table each quarter,
// plus an annual sex × education supplement. Sequential composition
// (Theorem 7.3) means these all draw down one privacy budget, and the
// sex × education marginal pays the d·ε surcharge of weak ER-EE privacy
// (d = 8 for sex × education).
//
// This example plans a budget of ε = 16 across the five releases,
// verifies feasibility against the mechanisms' validity regions, then
// executes the plan through a Publisher wired to an Accountant — which
// blocks any release that would overdraw the budget.
package main

import (
	"fmt"
	"log"
	"math"

	"repro"
)

func main() {
	log.SetFlags(0)

	data, err := eree.Generate(eree.TestDataConfig(), 2024)
	if err != nil {
		log.Fatal(err)
	}

	const (
		alpha       = 0.1
		budgetEps   = 16.0
		budgetDelta = 0.05
	)

	// Plan: four quarterly workplace tables (weight 1 each) and one
	// annual worker-attribute supplement (weight 6 — it needs the lion's
	// share because of its d=8 surcharge).
	requests := []eree.ReleaseRequest{
		{Name: "q1-workplace", Weight: 1, WorkerDomainSize: 1},
		{Name: "q2-workplace", Weight: 1, WorkerDomainSize: 1},
		{Name: "q3-workplace", Weight: 1, WorkerDomainSize: 1},
		{Name: "q4-workplace", Weight: 1, WorkerDomainSize: 1},
		{Name: "annual-sex-education", Weight: 6, WorkerDomainSize: 8},
	}
	plan, err := eree.PlanReleases(eree.WeakEREE, alpha, budgetEps, budgetDelta, requests)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("budget: eps=%g delta=%g at alpha=%g (weak ER-EE privacy)\n\n", budgetEps, budgetDelta, alpha)
	fmt.Printf("%-24s %12s %12s %6s\n", "release", "marginal-eps", "cell-eps", "d")
	for _, r := range plan.Releases {
		fmt.Printf("%-24s %12.3f %12.3f %6d\n", r.Name, r.MarginalEps, r.CellEps, r.WorkerDomainSize)
	}

	// Feasibility: Smooth Gamma needs cell eps > 5*ln(1+alpha) ~ 0.477.
	minGamma := 5 * math.Log(1+alpha)
	if infeasible := plan.Feasible(minGamma); len(infeasible) > 0 {
		fmt.Printf("\ninfeasible for smooth-gamma (min cell eps %.3f): %v\n", minGamma, infeasible)
		fmt.Println("these releases fall back to smooth-laplace (whose delta>0 relaxes the minimum)")
	}

	// Execute under an accountant: every release is charged; an attempt
	// to overdraw fails loudly instead of silently degrading privacy.
	acct, err := eree.NewAccountant(eree.WeakEREE, alpha, budgetEps, budgetDelta)
	if err != nil {
		log.Fatal(err)
	}
	pub := eree.NewPublisher(data)

	fmt.Println("\nexecuting plan:")
	for i, r := range plan.Releases {
		attrs := eree.WorkplaceAttrs()
		if r.WorkerDomainSize > 1 {
			attrs = append(attrs, eree.AttrSex, eree.AttrEducation)
		}
		rel, err := pub.ReleaseMarginal(acct, eree.Request{
			Attrs:     attrs,
			Mechanism: eree.MechSmoothLaplace,
			Alpha:     alpha,
			Eps:       r.CellEps,
			Delta:     r.CellDelta,
		}, eree.NewStream(int64(100+i)), nil)
		if err != nil {
			log.Fatal(err)
		}
		spentEps, spentDelta := acct.Spent().Eps, acct.Spent().Delta
		fmt.Printf("  %-24s charged %s  (cumulative eps=%.3f delta=%.4f)\n",
			r.Name, rel.Loss, spentEps, spentDelta)
	}

	remEps, remDelta := acct.Remaining()
	fmt.Printf("\nbudget remaining: eps=%.6f delta=%.6f\n", remEps, remDelta)

	// One more (mechanism-valid) release must be refused by the accountant.
	_, err = pub.ReleaseMarginal(acct, eree.Request{
		Attrs:     eree.WorkplaceAttrs(),
		Mechanism: eree.MechSmoothLaplace,
		Alpha:     alpha,
		Eps:       2,
		Delta:     0.05,
	}, eree.NewStream(999), nil)
	if err != nil {
		fmt.Printf("extra unplanned release correctly refused: %v\n", err)
	} else {
		log.Fatal("accountant failed to block an over-budget release")
	}
}
