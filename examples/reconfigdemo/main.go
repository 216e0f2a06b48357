// Reconfiguration demo (paper Fig. 12): render a DTMB(2,6) array with 10
// random faulty cells before and after local reconfiguration, and contrast
// the repair cost with the shifted-replacement baseline of Fig. 2.
package main

import (
	"fmt"
	"log"

	"dmfb/internal/defects"
	"dmfb/internal/layout"
	"dmfb/internal/reconfig"
	"dmfb/internal/render"
	"dmfb/internal/sqgrid"
)

func main() {
	arr, err := layout.BuildParallelogram(layout.DTMB26(), 14, 12)
	if err != nil {
		log.Fatal(err)
	}
	in := defects.NewInjector(12)
	faults, err := in.FixedCount(arr, 10, defects.AllCells, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("DTMB(2,6) array with 10 random faults:")
	fmt.Println()
	fmt.Print(render.ASCII(arr, render.Marks{Faults: faults}))
	fmt.Println(render.Legend())

	plan, err := reconfig.LocalReconfigure(arr, faults, reconfig.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nafter local reconfiguration (R = spare standing in for a neighbor):")
	fmt.Println()
	fmt.Print(render.ASCII(arr, render.Marks{Faults: faults, Plan: &plan}))
	fmt.Println()
	fmt.Print(render.Summary(arr, render.Marks{Faults: faults, Plan: &plan}))
	fmt.Printf("repair cost: %d cells remapped (one per fault), no fault-free module touched\n",
		plan.CellsRemapped())

	// The baseline the paper argues against: spare-row redundancy with
	// shifted replacement (Fig. 2).
	fmt.Println("\n--- boundary spare-row baseline (paper Fig. 2) ---")
	p := sqgrid.Figure2Placement()
	for _, scenario := range []struct {
		name  string
		fault sqgrid.Coord
	}{
		{"fault in Module 1 (next to the spare row)", sqgrid.Coord{X: 3, Y: 6}},
		{"fault in Module 3 (far from the spare row)", sqgrid.Coord{X: 3, Y: 1}},
	} {
		res, err := reconfig.ShiftedReplacement(p, scenario.fault)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n  %d cells remapped, modules reconfigured: %v\n",
			scenario.name, res.CellsRemapped, res.ModulesReconfigured)
	}
	fmt.Println("\ninterstitial redundancy repairs every fault with exactly one adjacent spare;")
	fmt.Println("shifted replacement drags fault-free modules into the reconfiguration.")
}
