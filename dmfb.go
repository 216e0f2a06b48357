// Package dmfb is a Go implementation of yield enhancement for digital
// microfluidics-based biochips using space redundancy and local
// reconfiguration, reproducing Su, Chakrabarty and Pamula (DATE 2005).
//
// Digital microfluidic biochips (DMFBs) move nanoliter droplets over a 2-D
// electrode array by electrowetting. Because a droplet can only step to a
// physically adjacent cell, classic boundary spare-row redundancy forces
// expensive "shifted replacement" cascades; this library instead builds
// DTMB(s, p) arrays with *interstitial* spare cells so every faulty primary
// cell is repaired locally by an adjacent spare, assigned with maximum
// bipartite matching.
//
// The facade re-exports the main entry points; the full machinery lives in
// the internal packages (layout, defects, matching, reconfig, yieldsim,
// chip, sweep, service, ...; see DESIGN.md):
//
//	chip, _ := dmfb.New(dmfb.DTMB26(), 100) // 100 primaries + interstitial spares
//	chip.InjectBernoulli(1, 0.95)           // manufacturing defects (p = cell survival)
//	plan, _ := chip.Reconfigure()           // local reconfiguration via matching
//	fmt.Println(plan.OK)                    // chip shippable?
//
// Beyond the library, the repository ships one-shot CLIs under cmd/
// (dtmb-yield, dtmb-experiments, dtmb-layout, ...), a parameter-sweep tool
// (cmd/dtmb-sweep, emitting CSV/NDJSON grids of yield scenarios, in-process
// or against a remote server), and an online serving layer: cmd/dtmb-serve
// exposes the v1 endpoints (POST /v1/yield, /v1/recommend, /v1/reconfigure,
// streaming /v1/sweep) and a scenario-first v2 surface — POST /v2/evaluate
// for one scenario of any strategy × defect model, and POST /v2/jobs for
// asynchronous sweeps whose NDJSON result streams are cursor-resumable with
// byte identity — over HTTP/JSON, backed by internal/service: a batched
// Monte-Carlo engine with a bounded worker pool, an LRU result cache,
// single-flight deduplication of concurrent identical requests, and a job
// store, in memory or durable on disk, drained by graceful shutdown; a
// leasing coordinator can hand job shards to cmd/dtmb-worker processes
// (internal/dispatch). Package dmfb/client is
// the typed Go client of both surfaces, resuming interrupted job streams
// automatically. The Monte-Carlo kernel is chunk-seeded, so estimates are
// deterministic in (seed, runs, epsilon) regardless of parallelism;
// identical requests are therefore cacheable, sweep output is
// byte-reproducible, and a served answer equals the library answer for the
// same parameters. DESIGN.md documents the architecture and API.md the full
// HTTP contract.
package dmfb

import (
	"dmfb/internal/core"
	"dmfb/internal/layout"
	"dmfb/internal/yieldsim"
)

// Biochip is a defect-tolerant microfluidic biochip; see internal/core.
type Biochip = core.Biochip

// Design describes a DTMB(s, p) interstitial-redundancy pattern.
type Design = layout.Design

// New builds a biochip with the given design and exactly nPrimary primary
// cells.
func New(design Design, nPrimary int) (*Biochip, error) {
	return core.New(design, nPrimary)
}

// The four canonical defect-tolerant designs of the paper (Table 1), plus
// the alternative DTMB(2,6) arrangement of Fig. 4(b).
var (
	DTMB16    = layout.DTMB16
	DTMB26    = layout.DTMB26
	DTMB26Alt = layout.DTMB26Alt
	DTMB36    = layout.DTMB36
	DTMB44    = layout.DTMB44
)

// AllDesigns returns the four canonical designs in Table 1 order.
func AllDesigns() []Design { return layout.AllDesigns() }

// NoRedundancyYield returns p^n, the yield of a chip whose n working cells
// have no spares.
func NoRedundancyYield(p float64, n int) float64 { return yieldsim.NoRedundancy(p, n) }

// ClusterYieldDTMB16 returns the paper's closed-form DTMB(1,6) yield
// Y = (p^7 + 7p^6(1−p))^(n/6).
func ClusterYieldDTMB16(p float64, n int) float64 { return yieldsim.ClusterYieldDTMB16(p, n) }

// EffectiveYield returns EY = Y/(1+RR), the paper's yield-per-area metric.
func EffectiveYield(y, rr float64) float64 { return yieldsim.EffectiveYield(y, rr) }

// RecommendDesign evaluates all canonical designs at survival probability p
// and picks the one with the highest effective yield (paper Fig. 10).
func RecommendDesign(p float64, nPrimary, runs int, seed int64) (core.Recommendation, error) {
	return core.RecommendDesign(p, nPrimary, runs, seed)
}
