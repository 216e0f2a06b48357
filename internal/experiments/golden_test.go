package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden fixtures instead of asserting against them:
//
//	go test ./internal/experiments -run TestGolden -update
//
// Review the diff before committing — a changed fixture means the reproduced
// numbers moved.
var update = flag.Bool("update", false, "rewrite golden files")

// goldenCfg is the reduced-but-deterministic configuration the fixtures are
// generated with. The chunk-seeded kernel makes every byte a pure function
// of (Runs, Seed) — Workers and GOMAXPROCS never leak in — which is what
// makes byte-exact fixtures sound.
func goldenCfg() Config { return Config{Runs: 250, Seed: 20050307} }

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden fixture.\n--- got:\n%s\n--- want:\n%s\n"+
			"If the change is intentional, regenerate with `go test ./internal/experiments -run TestGolden -update` and commit the diff.",
			name, got, string(want))
	}
}

// TestGoldenFigure9 locks the Monte-Carlo yield table of the paper's Fig. 9
// byte-for-byte, so kernel refactors cannot silently shift the reproduced
// numbers.
func TestGoldenFigure9(t *testing.T) {
	_, tb, err := Figure9(goldenCfg(), []int{60}, []float64{0.90, 0.95, 0.99})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure9.golden", tb.String())
}

// TestGoldenFigure10 locks the effective-yield table of the paper's Fig. 10.
func TestGoldenFigure10(t *testing.T) {
	_, tb, err := Figure10(goldenCfg(), []float64{0.85, 0.95, 0.99})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure10.golden", tb.String())
}

// TestGoldenFigure13 locks the case-study table of the paper's Fig. 13: the
// redesigned chip's yield under exactly m faults, for every default policy.
func TestGoldenFigure13(t *testing.T) {
	_, tb, err := Figure13(goldenCfg(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure13.golden", tb.String())
}
