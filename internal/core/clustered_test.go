package core

import (
	"math"
	"reflect"
	"testing"

	"dmfb/internal/defects"
	"dmfb/internal/layout"
)

func TestBiochipInjectClustered(t *testing.T) {
	chip, err := New(layout.DTMB26(), 60)
	if err != nil {
		t.Fatal(err)
	}
	params := defects.ClusterParams{MeanDefects: 12, ClusterSize: 4}
	clusters, err := chip.InjectClustered(77, params)
	if err != nil {
		t.Fatal(err)
	}
	if clusters < 0 {
		t.Fatalf("negative cluster count %d", clusters)
	}
	if clusters > 0 && chip.Faults().Count() == 0 {
		t.Error("clusters reported but no faulty cells")
	}
	faulty := chip.Faults().FaultyCells()

	// Same seed reproduces the same fault pattern.
	chip2, err := New(layout.DTMB26(), 60)
	if err != nil {
		t.Fatal(err)
	}
	clusters2, err := chip2.InjectClustered(77, params)
	if err != nil {
		t.Fatal(err)
	}
	if clusters != clusters2 || !reflect.DeepEqual(faulty, chip2.Faults().FaultyCells()) {
		t.Error("clustered injection not deterministic per seed")
	}

	// Injection invalidates any previous reconfiguration plan.
	if _, ok := chip.Plan(); ok {
		t.Error("plan still valid after injection")
	}
	if _, err := chip.Reconfigure(); err != nil {
		t.Fatal(err)
	}

	// Invalid parameters are rejected.
	if _, err := chip.InjectClustered(1, defects.ClusterParams{MeanDefects: -1, ClusterSize: 2}); err == nil {
		t.Error("negative mean defect count accepted")
	}
	if _, err := chip.InjectClustered(1, defects.ClusterParams{MeanDefects: math.Inf(1), ClusterSize: 2}); err == nil {
		t.Error("infinite mean defect count accepted")
	}
}
