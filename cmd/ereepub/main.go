// Command ereepub releases a marginal query over a LODES snapshot under a
// chosen privacy mechanism, printing one row per non-empty cell:
// the cell's attribute values, the released count, and (with -truth) the
// confidential true count for comparison.
//
// Usage:
//
//	ereepub -data data/ -attrs place,industry,ownership \
//	        -mech smooth-gamma -alpha 0.1 -eps 2 [-delta 0.05] [-theta 100] \
//	        [-seed 7] [-truth] [-top 20] \
//	        [-quarters 4] [-deltaseed 1] [-stats]
//
// If -data is omitted a synthetic snapshot is generated in memory.
// With -quarters N the publisher first absorbs N generated quarterly
// deltas (hires, separations, establishment births and deaths), so the
// release comes from epoch N of the versioned dataset; -stats prints
// the per-epoch marginal-cache counters afterwards.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ereepub: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command behind a testable seam: flag parsing, data
// loading or generation, optional quarterly advances, one release, and
// the report written to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ereepub", flag.ContinueOnError)
	dataDir := fs.String("data", "", "dataset directory from lodesgen (default: generate in memory)")
	attrsFlag := fs.String("attrs", "place,industry,ownership", "comma-separated marginal attributes")
	mechFlag := fs.String("mech", "smooth-gamma", "mechanism: log-laplace | smooth-gamma | smooth-laplace | edge-laplace | truncated-laplace")
	alpha := fs.Float64("alpha", 0.1, "establishment-size protection window")
	eps := fs.Float64("eps", 2, "privacy-loss parameter")
	delta := fs.Float64("delta", 0.05, "failure probability (smooth-laplace)")
	theta := fs.Int("theta", 100, "truncation threshold (truncated-laplace)")
	seed := fs.Int64("seed", 7, "noise seed")
	dataSeed := fs.Int64("dataseed", 1, "generator seed when -data is omitted")
	truth := fs.Bool("truth", false, "also print the confidential true counts")
	top := fs.Int("top", 25, "print only the top-N cells by released count (0 = all)")
	quarters := fs.Int("quarters", 0, "quarterly deltas to absorb before releasing")
	deltaSeed := fs.Int64("deltaseed", 1, "base seed for generated quarterly deltas")
	stats := fs.Bool("stats", false, "print per-epoch cache statistics after the release")
	if err := fs.Parse(args); err != nil {
		// The FlagSet already printed the problem (or the usage text, for
		// -h) to stderr; -h is a clean exit, anything else a terse one.
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("invalid arguments")
	}

	var data *eree.Dataset
	var err error
	if *dataDir != "" {
		data, err = eree.LoadCSV(*dataDir)
	} else {
		data, err = eree.Generate(eree.TestDataConfig(), *dataSeed)
	}
	if err != nil {
		return err
	}

	kind, err := eree.ParseMechanismKind(*mechFlag)
	if err != nil {
		return err
	}
	req := eree.Request{
		Attrs:     strings.Split(*attrsFlag, ","),
		Mechanism: kind,
		Alpha:     *alpha,
		Eps:       *eps,
		Delta:     *delta,
		Theta:     *theta,
	}
	pub := eree.NewPublisher(data)
	if *quarters > 0 {
		cfg := eree.DefaultDeltaConfig()
		for q := 0; q < *quarters; q++ {
			dl, err := eree.GenerateDelta(pub.Dataset(), cfg, *deltaSeed+int64(q))
			if err != nil {
				return fmt.Errorf("quarter %d: %w", q+1, err)
			}
			added, removed := dl.Jobs(pub.Dataset())
			if err := pub.Advance(dl); err != nil {
				return fmt.Errorf("quarter %d: %w", q+1, err)
			}
			fmt.Fprintf(out, "quarter %d: +%d/-%d jobs, %d births, %d deaths -> epoch %d (%d jobs, %d establishments)\n",
				q+1, added, removed, len(dl.Births), len(dl.Deaths),
				pub.Epoch(), pub.Dataset().NumJobs(), pub.Dataset().NumEstablishments())
		}
	}
	rel, err := pub.ReleaseMarginal(nil, req, eree.NewStream(*seed), nil)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "mechanism: %s\n", rel.MechanismName)
	fmt.Fprintf(out, "privacy loss: %s\n", rel.Loss)
	fmt.Fprintf(out, "epoch: %d\n", rel.Epoch)
	if rel.Truncation != nil {
		fmt.Fprintf(out, "truncation: removed %d establishments / %d jobs\n",
			rel.Truncation.RemovedEmployers, rel.Truncation.RemovedEdges)
	}

	type row struct {
		cell  int
		noisy float64
	}
	rows := make([]row, 0, len(rel.Noisy))
	for cell, v := range rel.Noisy {
		if rel.Truth.Counts[cell] == 0 && v == 0 {
			continue
		}
		rows = append(rows, row{cell, v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].noisy > rows[j].noisy })
	if *top > 0 && len(rows) > *top {
		rows = rows[:*top]
	}
	for _, r := range rows {
		if *truth {
			fmt.Fprintf(out, "%-70s %12.1f  (true %d)\n",
				rel.Query.CellString(r.cell), r.noisy, rel.Truth.Counts[r.cell])
		} else {
			fmt.Fprintf(out, "%-70s %12.1f\n", rel.Query.CellString(r.cell), r.noisy)
		}
	}
	if *stats {
		for _, cs := range pub.CacheStatsByEpoch() {
			fmt.Fprintf(out, "epoch %d cache: %d hits, %d misses, %d evictions\n",
				cs.Epoch, cs.Hits, cs.Misses, cs.Evictions)
		}
	}
	return nil
}
