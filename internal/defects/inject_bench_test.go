package defects

import (
	"fmt"
	"testing"

	"dmfb/internal/layout"
)

// The per-layer injection benchmarks time one 64-trial batch per
// iteration on the paper's DTMB(2,6) array with 100 primaries, and report
// the cost per trial alongside allocs. BenchmarkSamplers runs both
// Bernoulli samplers at every p, the measurement behind skipMaxQ.

func benchArray(b *testing.B) *layout.Array {
	b.Helper()
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 100)
	if err != nil {
		b.Fatal(err)
	}
	return arr
}

// benchBatches runs inject once per iteration and reports ns/trial.
func benchBatches(b *testing.B, inject func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inject()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*WordTrials), "ns/trial")
}

var benchPs = []struct {
	name string
	p    float64
}{{"p=0.95", 0.95}, {"p=0.999", 0.999}}

func BenchmarkBernoulliBatch(b *testing.B) {
	arr := benchArray(b)
	for _, bp := range benchPs {
		b.Run(bp.name, func(b *testing.B) {
			in, tb := NewInjector(1), NewTrialBatch(arr.NumCells())
			benchBatches(b, func() { in.BernoulliBatch(arr.NumCells(), bp.p, WordTrials, tb) })
		})
	}
}

// BenchmarkSamplers times the per-cell scan and the skip-sampler on the
// same batches over p ∈ {0.5, …, 0.999}, on both sides of the crossover
// BernoulliBatch switches at (q = skipMaxQ). Where the two cost the same
// is where skipMaxQ belongs.
func BenchmarkSamplers(b *testing.B) {
	arr := benchArray(b)
	for _, p := range []float64{0.5, 0.55, 0.6, 0.65, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999} {
		for _, s := range []struct {
			name   string
			sample func(in *Injector, q float64, tb *TrialBatch)
		}{
			{"scan", func(in *Injector, q float64, tb *TrialBatch) { in.scanBatch(q, WordTrials, tb) }},
			{"skip", func(in *Injector, q float64, tb *TrialBatch) { in.skipBatch(q, WordTrials, tb) }},
		} {
			b.Run(fmt.Sprintf("p=%g/%s", p, s.name), func(b *testing.B) {
				in, tb := NewInjector(1), NewTrialBatch(arr.NumCells())
				benchBatches(b, func() {
					tb.Reset(WordTrials)
					s.sample(in, 1-p, tb)
				})
			})
		}
	}
}

// BenchmarkClusteredBatch runs the clustered model at the kernel's
// p=0.95 mapping, (1−p)·N expected faulty cells, on DTMB(2,6) over a
// parallelogram with 100 primaries and a hexagon with 240, in clusters of 4
// and 64 cells. The warm cases reuse one injector, whose ring stencil is
// built once; the cold cases take a fresh injector per batch, so they carry
// the stencil build.
func BenchmarkClusteredBatch(b *testing.B) {
	para := benchArray(b)
	hex, err := layout.BuildHexagonWithPrimaryTarget(layout.DTMB26(), 240)
	if err != nil {
		b.Fatal(err)
	}
	for _, fp := range []struct {
		name string
		arr  *layout.Array
	}{{"parallelogram-n100", para}, {"hexagon-n240", hex}} {
		arr := fp.arr
		for _, size := range []float64{4, 64} {
			cp := Model{Clustered: true, ClusterSize: size}.Params(0.95, arr.NumCells())
			name := fmt.Sprintf("%s/size=%g", fp.name, size)
			b.Run(name, func(b *testing.B) {
				in, tb := NewInjector(1), NewTrialBatch(arr.NumCells())
				benchBatches(b, func() {
					if _, err := in.ClusteredBatch(arr, cp, WordTrials, tb); err != nil {
						b.Fatal(err)
					}
				})
			})
			b.Run(name+"/cold", func(b *testing.B) {
				tb := NewTrialBatch(arr.NumCells())
				benchBatches(b, func() {
					if _, err := NewInjector(1).ClusteredBatch(arr, cp, WordTrials, tb); err != nil {
						b.Fatal(err)
					}
				})
			})
		}
	}
}
