// Command dtmb-experiments regenerates every table and figure of the paper's
// evaluation from the experiment drivers. By default it runs everything with
// the paper's 10000 Monte-Carlo runs; -quick reduces run counts for smoke
// testing, and the -table1/-fig2/... flags select individual experiments.
// The yield-grid figures (9 and 10) are driven by the internal/sweep engine,
// the same code path behind cmd/dtmb-sweep and POST /v1/sweep, so all three
// produce identical numbers for identical parameters.
package main

import (
	"flag"
	"fmt"
	"os"

	"dmfb/internal/experiments"
)

func main() {
	var (
		quick = flag.Bool("quick", false, "reduced Monte-Carlo runs for a fast pass")
		runs  = flag.Int("runs", 0, "override Monte-Carlo runs per point (0 keeps the default)")
		seed  = flag.Int64("seed", 0, "override the experiment seed (any value, 0 included; unset keeps the default)")
		t1    = flag.Bool("table1", false, "only Table 1 (redundancy ratios)")
		f2    = flag.Bool("fig2", false, "only Figure 2 (shifted replacement)")
		f7    = flag.Bool("fig7", false, "only Figure 7 (DTMB(1,6) analytical yield)")
		f8    = flag.Bool("fig8", false, "only Figure 8 (bipartite matching example)")
		f9    = flag.Bool("fig9", false, "only Figure 9 (Monte-Carlo yield)")
		f10   = flag.Bool("fig10", false, "only Figure 10 (effective yield)")
		base  = flag.Bool("baseline", false, "only the case-study baseline yield")
		f13   = flag.Bool("fig13", false, "only Figure 13 (case-study yield vs faults)")
		abl   = flag.Bool("ablations", false, "only the ablation studies")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "dtmb-experiments:", err)
		os.Exit(1)
	}
	if *runs < 0 {
		fail(fmt.Errorf("-runs must not be negative, got %d", *runs))
	}
	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			cfg.Seed = *seed
		}
	})

	all := !(*t1 || *f2 || *f7 || *f8 || *f9 || *f10 || *base || *f13 || *abl)

	if all || *t1 {
		fmt.Println(experiments.Table1().String())
	}
	if all || *f2 {
		_, tb, err := experiments.Figure2()
		if err != nil {
			fail(err)
		}
		fmt.Println(tb.String())
	}
	if all || *f7 {
		_, tb := experiments.Figure7(nil, nil)
		fmt.Println(tb.String())
	}
	if all || *f8 {
		plan, tb, err := experiments.Figure8(cfg.Seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(tb.String())
		fmt.Printf("matching saturates faulty primaries: %v\n\n", plan.OK)
	}
	if all || *f9 {
		_, tb, err := experiments.Figure9(cfg, nil, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(tb.String())
	}
	if all || *f10 {
		_, tb, err := experiments.Figure10(cfg, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(tb.String())
	}
	if all || *base {
		fmt.Println(experiments.CaseStudyBaseline(nil).String())
	}
	if all || *f13 {
		points, tb, err := experiments.Figure13(cfg, nil, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(tb.String())
		for _, pol := range experiments.Figure13Policies() {
			m := experiments.MaxFaultsAtYield(points, pol.Name, 0.90)
			fmt.Printf("max faults with yield >= 0.90 under %-28s m = %d\n", pol.Name+":", m)
		}
		fmt.Println()
	}
	if all || *abl {
		tb, err := experiments.BoundaryAblation(cfg, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(tb.String())
		tb, err = experiments.VariantAblation(cfg, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(tb.String())
	}
}
