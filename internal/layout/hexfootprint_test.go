package layout

import (
	"testing"
)

func TestBuildHexagonWithPrimaryTargetExactCount(t *testing.T) {
	// Realized hexagon sizes at n = 60, where the square-versus-hexagon
	// footprint comparison was first tabulated.
	wantCells := map[string]int{"DTMB(2,6)": 79, "DTMB(4,4)": 127}
	for _, d := range AllDesigns() {
		for _, n := range []int{1, 7, 40, 60, 100} {
			arr, err := BuildHexagonWithPrimaryTarget(d, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", d.Name, n, err)
			}
			if arr.NumPrimary() != n {
				t.Errorf("%s n=%d: got %d primaries", d.Name, n, arr.NumPrimary())
			}
			if want, ok := wantCells[d.Name]; ok && n == 60 && arr.NumCells() != want {
				t.Errorf("%s n=%d: got %d cells, want %d", d.Name, n, arr.NumCells(), want)
			}
			if err := arr.Validate(); err != nil {
				t.Errorf("%s n=%d: invalid array: %v", d.Name, n, err)
			}
			if arr.NumSpare() == 0 && n > 6 {
				t.Errorf("%s n=%d: hexagon build produced no spares", d.Name, n)
			}
		}
	}
}

func TestBuildHexagonWithPrimaryTargetRejectsBadN(t *testing.T) {
	if _, err := BuildHexagonWithPrimaryTarget(DTMB26(), 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := BuildHexagonWithPrimaryTarget(DTMB26(), -3); err == nil {
		t.Error("n=-3 accepted")
	}
}

// TestHexagonFootprintHasFewerBoundaryCells verifies the geometric motivation
// for the hex strategy: at equal primary count, the hexagonal footprint has a
// smaller boundary fraction than the parallelogram, so more cells keep the
// full six-neighbor interstitial signature.
func TestHexagonFootprintHasFewerBoundaryCells(t *testing.T) {
	const n = 150
	d := DTMB26()
	hexArr, err := BuildHexagonWithPrimaryTarget(d, n)
	if err != nil {
		t.Fatal(err)
	}
	parArr, err := BuildWithPrimaryTarget(d, n)
	if err != nil {
		t.Fatal(err)
	}
	interiorFrac := func(a *Array) float64 {
		interior := 0
		for i := 0; i < a.NumCells(); i++ {
			if a.IsInterior(CellID(i)) {
				interior++
			}
		}
		return float64(interior) / float64(a.NumCells())
	}
	hf, pf := interiorFrac(hexArr), interiorFrac(parArr)
	if hf <= pf {
		t.Errorf("hexagon interior fraction %.3f not above parallelogram %.3f", hf, pf)
	}
}
