// Benchmarks regenerating every table and figure of the paper's evaluation
// (DATE 2005), plus ablations of the design choices called out in DESIGN.md.
// Each benchmark measures the kernel that produces the artifact and prints
// the artifact's rows once per `go test -bench` process, so
// `go test -bench=. -benchmem` doubles as the reproduction run. Run counts
// are reduced from the paper's 10000 to keep bench iterations meaningful;
// cmd/dtmb-experiments regenerates the full-resolution numbers.
package dmfb_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dmfb/client"
	"dmfb/internal/chip"
	"dmfb/internal/defects"
	"dmfb/internal/experiments"
	"dmfb/internal/layout"
	"dmfb/internal/matching"
	"dmfb/internal/reconfig"
	"dmfb/internal/service"
	"dmfb/internal/sqgrid"
	"dmfb/internal/stats"
	"dmfb/internal/yieldsim"
)

// printOnce prints each artifact a single time even though benchmarks run
// with increasing b.N.
var printOnce sync.Map

func printArtifact(name, body string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s\n", name, body)
	}
}

func benchCfg() experiments.Config {
	cfg := experiments.Quick()
	cfg.Runs = 400
	return cfg
}

// BenchmarkTable1RedundancyRatios regenerates Table 1 (redundancy ratios of
// the four DTMB designs).
func BenchmarkTable1RedundancyRatios(b *testing.B) {
	var tb stats.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.Table1()
	}
	printArtifact("Table 1", tb.String())
}

// BenchmarkFigure2ShiftedReplacementCost regenerates the Fig. 2 comparison:
// shifted replacement on a spare-row array vs interstitial reconfiguration.
func BenchmarkFigure2ShiftedReplacementCost(b *testing.B) {
	var tb stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		_, tb, err = experiments.Figure2()
		if err != nil {
			b.Fatal(err)
		}
	}
	printArtifact("Figure 2", tb.String())
}

// BenchmarkFigure7YieldDTMB16 regenerates Fig. 7: the analytical DTMB(1,6)
// yield curves against the no-redundancy baseline.
func BenchmarkFigure7YieldDTMB16(b *testing.B) {
	var tb stats.Table
	for i := 0; i < b.N; i++ {
		_, tb = experiments.Figure7(nil, nil)
	}
	printArtifact("Figure 7", tb.String())
}

// BenchmarkFigure8MatchingExample regenerates Fig. 8: the bipartite matching
// between faulty primaries and adjacent fault-free spares.
func BenchmarkFigure8MatchingExample(b *testing.B) {
	var tb stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		_, tb, err = experiments.Figure8(2005)
		if err != nil {
			b.Fatal(err)
		}
	}
	printArtifact("Figure 8", tb.String())
}

// BenchmarkFigure9MonteCarloYield regenerates Fig. 9: Monte-Carlo yield of
// DTMB(2,6)/(3,6)/(4,4) vs p (reduced run count and grid for benchmarking).
func BenchmarkFigure9MonteCarloYield(b *testing.B) {
	cfg := benchCfg()
	ps := []float64{0.90, 0.95, 0.99}
	var tb stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		_, tb, err = experiments.Figure9(cfg, []int{100}, ps)
		if err != nil {
			b.Fatal(err)
		}
	}
	printArtifact("Figure 9 (n=100, reduced runs)", tb.String())
}

// BenchmarkFigure10EffectiveYield regenerates Fig. 10: effective yield of
// all four designs at n = 100.
func BenchmarkFigure10EffectiveYield(b *testing.B) {
	cfg := benchCfg()
	ps := []float64{0.80, 0.90, 0.95, 0.99, 0.999}
	var tb stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		_, tb, err = experiments.Figure10(cfg, ps)
		if err != nil {
			b.Fatal(err)
		}
	}
	printArtifact("Figure 10 (reduced runs)", tb.String())
}

// BenchmarkCaseStudyBaselineYield regenerates the §7 baseline: the original
// 108-cell chip's yield, 0.3378 at p = 0.99.
func BenchmarkCaseStudyBaselineYield(b *testing.B) {
	var tb stats.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.CaseStudyBaseline(nil)
	}
	printArtifact("Case-study baseline", tb.String())
}

// BenchmarkFigure13CaseStudyYield regenerates Fig. 13: yield of the
// DTMB(2,6)-based redesign vs the number of injected faults, under all four
// fault-domain/repair-scope policies.
func BenchmarkFigure13CaseStudyYield(b *testing.B) {
	cfg := benchCfg()
	ms := []int{0, 10, 20, 30, 35, 40, 50}
	var tb stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		_, tb, err = experiments.Figure13(cfg, ms, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	printArtifact("Figure 13 (reduced runs)", tb.String())
}

// BenchmarkAblationMatchingAlgorithms compares the Hopcroft–Karp and Kuhn
// matching kernels on the case-study reconfiguration workload:
// "hopcroft-karp" is LocalReconfigure, "kuhn" the map-built repair graph
// solved by matching.Graph.Kuhn (kuhnRepairSize).
func BenchmarkAblationMatchingAlgorithms(b *testing.B) {
	c, err := chip.NewRedesignedChip()
	if err != nil {
		b.Fatal(err)
	}
	arr := c.Array()
	in := defects.NewInjector(1)
	for _, alg := range []struct {
		name string
		kuhn bool
	}{{"hopcroft-karp", false}, {"kuhn", true}} {
		b.Run(alg.name, func(b *testing.B) {
			var fs *defects.FaultSet
			for i := 0; i < b.N; i++ {
				var err error
				fs, err = in.FixedCount(arr, 35, defects.AllCells, fs)
				if err != nil {
					b.Fatal(err)
				}
				if alg.kuhn {
					kuhnRepairSize(arr, fs)
				} else if _, err := reconfig.LocalReconfigure(arr, fs, reconfig.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// kuhnRepairSize is the ablation's reference kernel: it builds the repair
// graph over the faulty primaries and their healthy adjacent spares, the
// spares numbered by first appearance, and returns the size of Kuhn's
// maximum matching.
func kuhnRepairSize(arr *layout.Array, fs *defects.FaultSet) int {
	targets := fs.FaultyPrimaries(arr)
	spareIdx := make(map[layout.CellID]int)
	g := matching.NewGraph(len(targets), arr.NumSpare())
	for ti, t := range targets {
		for _, sp := range arr.SpareNeighbors(t) {
			if fs.IsFaulty(sp) {
				continue
			}
			si, ok := spareIdx[sp]
			if !ok {
				si = len(spareIdx)
				spareIdx[sp] = si
			}
			_ = g.AddEdge(ti, si) // both ends in range by construction
		}
	}
	return g.Kuhn().Size
}

// BenchmarkAblationDTMB26Variants compares the two DTMB(2,6) geometries
// (Fig. 4a vs Fig. 4b) at equal redundancy.
func BenchmarkAblationDTMB26Variants(b *testing.B) {
	cfg := benchCfg()
	var tb stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		tb, err = experiments.VariantAblation(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	printArtifact("Ablation: DTMB(2,6) variants", tb.String())
}

// BenchmarkAblationBoundaryEffects compares cluster-complete DTMB(1,6)
// arrays (the analytical model's geometry) against parallelogram arrays.
func BenchmarkAblationBoundaryEffects(b *testing.B) {
	cfg := benchCfg()
	var tb stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		tb, err = experiments.BoundaryAblation(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	printArtifact("Ablation: boundary effects", tb.String())
}

// BenchmarkAblationFaultDomainPolicies isolates the Fig. 13 policy choice:
// the same m under the four fault-domain/repair-scope combinations.
func BenchmarkAblationFaultDomainPolicies(b *testing.B) {
	cfg := benchCfg()
	var points []experiments.Figure13Point
	for i := 0; i < b.N; i++ {
		var err error
		points, _, err = experiments.Figure13(cfg, []int{35}, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	body := ""
	for _, pt := range points {
		body += fmt.Sprintf("m=%d %-28s yield %.4f\n", pt.M, pt.Policy, pt.Result.Yield)
	}
	printArtifact("Ablation: Fig. 13 policies at m=35", body)
}

// BenchmarkMonteCarloKernel measures the raw Monte-Carlo yield kernel on
// the paper's largest sweep configuration (n = 240, DTMB(4,4)).
func BenchmarkMonteCarloKernel(b *testing.B) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB44(), 240)
	if err != nil {
		b.Fatal(err)
	}
	mc := yieldsim.NewMonteCarlo(1)
	mc.Runs = 1000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.Yield(arr, 0.95); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveHighSurvival quantifies precision-targeted early stopping
// in the regime it was built for: p = 0.999, where the proportion is so
// lopsided that the Wilson half-width collapses long before a worst-case
// fixed budget is spent. Both sides answer the same question to the same
// guaranteed precision; "fixed" pays the full a-priori trial count while
// "adaptive" stops at the first chunk boundary whose realized half-width
// meets epsilon.
func BenchmarkAdaptiveHighSurvival(b *testing.B) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 100)
	if err != nil {
		b.Fatal(err)
	}
	const budget = 20000
	b.Run("fixed", func(b *testing.B) {
		mc := yieldsim.NewMonteCarlo(1)
		mc.Runs = budget
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mc.Yield(arr, 0.999); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("adaptive", func(b *testing.B) {
		mc := yieldsim.NewMonteCarlo(1)
		mc.Runs = budget
		mc.Epsilon = 0.002
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := mc.Yield(arr, 0.999)
			if err != nil {
				b.Fatal(err)
			}
			if res.Runs >= budget {
				b.Fatalf("adaptive pass never stopped early (%d trials)", res.Runs)
			}
		}
	})
}

// BenchmarkHexYieldKernel measures the Monte-Carlo yield kernel on a
// hexagonal-footprint DTMB array (build cost excluded; the kernel and the
// six-neighbor reconfiguration matcher dominate).
func BenchmarkHexYieldKernel(b *testing.B) {
	arr, err := layout.BuildHexagonWithPrimaryTarget(layout.DTMB26(), 100)
	if err != nil {
		b.Fatal(err)
	}
	mc := yieldsim.NewMonteCarlo(1)
	mc.Runs = 1000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.YieldModelContext(context.Background(), arr, 0.95, defects.Model{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHexYieldKernelHighSurvival measures the same hex kernel at
// p = 0.999, the near-perfect-process regime where most trials draw no
// fault and the faulty ones carry 1–2 faults, so per-estimate set-up (the
// worker's session, trial batch and injector) weighs more than at p = 0.95.
func BenchmarkHexYieldKernelHighSurvival(b *testing.B) {
	arr, err := layout.BuildHexagonWithPrimaryTarget(layout.DTMB26(), 100)
	if err != nil {
		b.Fatal(err)
	}
	mc := yieldsim.NewMonteCarlo(1)
	mc.Runs = 1000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.YieldModelContext(context.Background(), arr, 0.999, defects.Model{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusteredDefectKernel measures the clustered-defect yield kernel
// (clustered injection + local reconfiguration) at the same workload as
// BenchmarkHexYieldKernel's independent model.
func BenchmarkClusteredDefectKernel(b *testing.B) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 100)
	if err != nil {
		b.Fatal(err)
	}
	mc := yieldsim.NewMonteCarlo(1)
	mc.Runs = 1000
	model := defects.Model{Clustered: true, ClusterSize: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.YieldModelContext(context.Background(), arr, 0.95, model); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShiftedKernel measures the shifted-replacement yield kernel
// (injection plus the word-parallel column walk) on one worker, at n = 100
// with one spare row and p = 0.95, under both defect models.
func BenchmarkShiftedKernel(b *testing.B) {
	pl, err := sqgrid.PlacementWithPrimaryTarget(100, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		model defects.Model
	}{
		{"independent", defects.Model{}},
		{"clustered", defects.Model{Clustered: true, ClusterSize: 4}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			mc := yieldsim.NewMonteCarlo(1)
			mc.Runs = 10000
			mc.Workers = 1
			for i := 0; i < b.N; i++ {
				if _, err := mc.ShiftedYieldModelContext(context.Background(), pl, 0.95, tc.model); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusteredInjector isolates the raw clustered-injection draw from
// the reconfiguration matcher.
func BenchmarkClusteredInjector(b *testing.B) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 100)
	if err != nil {
		b.Fatal(err)
	}
	in := defects.NewInjector(1)
	cp := defects.ClusterParams{MeanDefects: 7, ClusterSize: 4}
	var fs *defects.FaultSet
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs, _, err = in.Clustered(arr, cp, fs)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJobStore measures the v2 job machinery itself — plan, job
// registration, per-point emission/encoding, completion — on a 202-point
// closed-form grid, so no Monte-Carlo time drowns the store overhead.
func BenchmarkJobStore(b *testing.B) {
	engine := service.NewEngine(service.EngineConfig{DefaultRuns: 100})
	jobs := service.NewJobStore(engine, service.JobStoreConfig{MaxJobs: 4})
	defer jobs.Close(context.Background())
	req := service.SweepRequest{
		Strategies: []string{"none"},
		NPrimaries: []int{100, 200},
		PMin:       0.90, PMax: 1.00, PPoints: 101,
		Seed: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := jobs.Create(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		st, err := j.Wait(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if st.State != service.JobCompleted || st.PointsDone != 202 {
			b.Fatalf("job ended %+v", st)
		}
	}
}

// BenchmarkJobStoreLarge runs one 20,000-point closed-form job per op on an
// in-memory store and on a durable one: the store's commit path at the
// largest grid a job serves, where the file store's write and fsync per
// committed run dominate.
func BenchmarkJobStoreLarge(b *testing.B) {
	req := service.SweepRequest{
		Strategies: []string{"none"},
		NPrimaries: []int{100, 200},
		PMin:       0.90, PMax: 1.00, PPoints: 10000,
		Seed: 1,
	}
	stores := map[string]func(*service.Engine) (*service.Store, error){
		"memory": func(e *service.Engine) (*service.Store, error) {
			return service.NewJobStore(e, service.JobStoreConfig{MaxJobs: 4}), nil
		},
		"file": func(e *service.Engine) (*service.Store, error) {
			return service.NewFileJobStore(e, service.JobStoreConfig{MaxJobs: 4}, b.TempDir())
		},
	}
	for _, name := range []string{"memory", "file"} {
		b.Run(name, func(b *testing.B) {
			jobs, err := stores[name](service.NewEngine(service.EngineConfig{DefaultRuns: 100}))
			if err != nil {
				b.Fatal(err)
			}
			defer jobs.Close(context.Background())
			for !jobs.Ready() {
				time.Sleep(time.Millisecond)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j, err := jobs.Create(context.Background(), req)
				if err != nil {
					b.Fatal(err)
				}
				st, err := j.Wait(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if st.State != service.JobCompleted || st.PointsDone != 20000 {
					b.Fatalf("job ended %+v", st)
				}
			}
		})
	}
}

// BenchmarkClientJobStream measures end-to-end streaming throughput of the
// typed client over HTTP: one pass decodes every record of a completed
// 202-point job through GET /v2/jobs/{id}/results.
func BenchmarkClientJobStream(b *testing.B) {
	engine := service.NewEngine(service.EngineConfig{DefaultRuns: 100})
	jobs := service.NewJobStore(engine, service.JobStoreConfig{})
	defer jobs.Close(context.Background())
	srv := httptest.NewServer(service.NewHandler(engine, jobs, nil))
	defer srv.Close()
	c := client.New(srv.URL)
	st, err := c.CreateJob(context.Background(), service.SweepRequest{
		Strategies: []string{"none"},
		NPrimaries: []int{100, 200},
		PMin:       0.90, PMax: 1.00, PPoints: 101,
		Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Job(context.Background(), st.ID); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		next, err := c.StreamJobResults(context.Background(), st.ID, 0, func(service.SweepRecord) error {
			n++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if next != 202 || n != 202 {
			b.Fatalf("streamed %d records, next %d", n, next)
		}
	}
}

// BenchmarkCaseStudyReconfiguration measures one full inject-and-repair
// cycle on the redesigned case-study chip at the paper's headline fault
// count (m = 35).
func BenchmarkCaseStudyReconfiguration(b *testing.B) {
	c, err := chip.NewRedesignedChip()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.InjectFixed(int64(i), 35, defects.AllCells); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Reconfigure(); err != nil {
			b.Fatal(err)
		}
	}
}
