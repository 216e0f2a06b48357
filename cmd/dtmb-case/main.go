// Command dtmb-case runs the paper's §7 case study: the multiplexed
// in-vitro diagnostics chip. It reports the original chip's no-redundancy
// yield (0.3378 at p = 0.99), regenerates the Fig. 13 yield-vs-faults
// curves of the DTMB(2,6)-based redesign, and renders a Fig. 12-style local
// reconfiguration example.
//
// Examples:
//
//	dtmb-case                 # baseline + Fig. 13 at full resolution
//	dtmb-case -demo -faults 10
//	dtmb-case -fig13 -runs 2000
package main

import (
	"flag"
	"fmt"
	"os"

	"dmfb/internal/chip"
	"dmfb/internal/defects"
	"dmfb/internal/experiments"
	"dmfb/internal/render"
)

func main() {
	var (
		runs   = flag.Int("runs", 10000, "Monte-Carlo runs per point")
		seed   = flag.Int64("seed", 20050307, "experiment seed")
		fig13  = flag.Bool("fig13", false, "only the Fig. 13 sweep")
		base   = flag.Bool("baseline", false, "only the original-chip baseline")
		demo   = flag.Bool("demo", false, "only the Fig. 12 reconfiguration demo")
		faults = flag.Int("faults", 10, "fault count for -demo")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "dtmb-case:", err)
		os.Exit(1)
	}
	if *runs < 1 {
		fail(fmt.Errorf("-runs must be at least 1, got %d", *runs))
	}
	all := !(*fig13 || *base || *demo)

	if all || *base {
		fmt.Println(experiments.CaseStudyBaseline(nil).String())
		oc, err := chip.OriginalChipLayout()
		if err != nil {
			fail(err)
		}
		fmt.Printf("original chip: %d modules covering %d cells on a %dx%d square array\n\n",
			len(oc.Placement.Modules), len(oc.Used), oc.Placement.Grid.W, oc.Placement.Grid.H)
	}

	if all || *fig13 {
		cfg := experiments.Config{Runs: *runs, Seed: *seed}
		points, tb, err := experiments.Figure13(cfg, nil, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(tb.String())
		for _, pol := range experiments.Figure13Policies() {
			m := experiments.MaxFaultsAtYield(points, pol.Name, 0.90)
			fmt.Printf("max faults with yield >= 0.90 under %-28s m = %d\n", pol.Name+":", m)
		}
		fmt.Println("\npaper claim: yield >= 0.90 for up to 35 faults (Fig. 13)")
		fmt.Println()
	}

	if all || *demo {
		c, err := chip.NewRedesignedChip()
		if err != nil {
			fail(err)
		}
		if err := c.InjectFixed(*seed, *faults, defects.AllCells); err != nil {
			fail(err)
		}
		plan, err := c.Reconfigure()
		if err != nil {
			fail(err)
		}
		used := make([]bool, c.Array().NumCells())
		for _, id := range c.UsedCells() {
			used[id] = true
		}
		marks := render.Marks{Faults: c.Faults(), Used: used, Plan: &plan}
		fmt.Printf("Fig. 12-style demo: DTMB(2,6) redesign with %d random faults\n\n", *faults)
		fmt.Print(render.ASCII(c.Array(), marks))
		fmt.Println(render.Legend())
		fmt.Println()
		fmt.Print(render.Summary(c.Array(), marks))
	}
}
