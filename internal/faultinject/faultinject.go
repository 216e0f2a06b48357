// Package faultinject is a deterministic, seedable fault-injection layer
// for chaos testing the distributed sweep stack. Code under test declares
// named injection points (Eval calls at its fragile seams — an fsync, an
// HTTP round trip, a shard submission); a test or operator arms a subset of
// those points with rules that fire probabilistically or on a deterministic
// hit schedule. Everything is off by default: the universal idiom is a
// possibly-nil *Injector field, and Eval on a nil receiver is a single
// pointer comparison returning the zero Decision — production pays nothing.
//
// Determinism: every armed point owns its own PRNG, seeded from the
// injector seed mixed with the point name. The sequence of fire/no-fire
// verdicts at one point is therefore a pure function of (seed, point,
// hit index), independent of how other points interleave with it — so a
// chaos schedule replays identically as long as each seam is hit the same
// number of times, and approximately (same fault *rate*) even when
// scheduling noise reorders hits across goroutines.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Point names one injection site, e.g. "store.append.fsync". Sites are
// declared by the code under test; arming an undeclared point is harmless
// (its rule simply never fires).
type Point string

// The injection points wired through the stack. Declared centrally so tests,
// CLI specs, and the seams themselves agree on spelling.
const (
	// StoreManifestWrite fails a durable manifest save (tmp write/fsync).
	StoreManifestWrite Point = "store.manifest.write"
	// StoreAppendWrite tears a result-log append: only a prefix of the
	// record reaches the file before the write errors.
	StoreAppendWrite Point = "store.append.write"
	// StoreAppendFsync fails the fsync that commits an appended record.
	StoreAppendFsync Point = "store.append.fsync"
	// StoreAppendENOSPC fails an append with a no-space error before any
	// byte is written.
	StoreAppendENOSPC Point = "store.append.enospc"
	// StoreReplayCorrupt flips one bit of a result log as it is read back
	// during replay, exercising the checksum-verification path.
	StoreReplayCorrupt Point = "store.replay.corrupt"

	// TransportReset fails an HTTP round trip before the request is sent,
	// as a reset/refused connection would.
	TransportReset Point = "transport.reset"
	// TransportLatency delays an HTTP round trip by the rule's Delay.
	TransportLatency Point = "transport.latency"
	// Transport5xx replaces the response with a synthetic 503.
	Transport5xx Point = "transport.5xx"
	// TransportTruncate cuts the response body short mid-read.
	TransportTruncate Point = "transport.truncate"

	// WorkerCrash aborts a worker's shard evaluation before submission —
	// the in-process analog of kill -9 mid-shard (the lease just expires).
	WorkerCrash Point = "worker.crash"
	// WorkerSlow stalls a worker's shard evaluation by the rule's Delay.
	WorkerSlow Point = "worker.slow"
	// WorkerDuplicateSubmit makes a worker submit a completed shard twice.
	WorkerDuplicateSubmit Point = "worker.duplicate_submit"
	// WorkerCorruptSubmit structurally corrupts a shard submission
	// (misindexed and short records), which the coordinator must reject.
	WorkerCorruptSubmit Point = "worker.corrupt_submit"
)

// ErrInjected is the root of every injected error; errors.Is(err, ErrInjected)
// distinguishes chaos faults from organic ones in assertions and logs.
var ErrInjected = errors.New("faultinject: injected fault")

// injectedErr wraps ErrInjected with the firing point, so an injected fault
// names its seam all the way up the error chain.
type injectedErr struct{ point Point }

func (e injectedErr) Error() string { return fmt.Sprintf("faultinject: injected fault at %s", e.point) }
func (e injectedErr) Unwrap() error { return ErrInjected }

// Decision is one point's verdict for one hit. The zero value (point not
// armed, rule did not fire, or nil injector) means proceed normally.
type Decision struct {
	// Fire reports whether the fault triggers on this hit.
	Fire bool
	// Err is the error the seam should surface when firing (defaults to an
	// ErrInjected-wrapped error naming the point).
	Err error
	// Delay is the latency to inject when firing (0 for pure failures).
	Delay time.Duration
}

// Rule arms one point. Fire conditions compose as OR: a hit fires when its
// 1-based hit number is listed in Hits, or the point's PRNG draws below
// Prob. Limit then caps the total number of fires.
type Rule struct {
	// Prob fires each hit independently with this probability in [0, 1].
	Prob float64
	// Hits fires deterministically on these 1-based hit numbers.
	Hits []int
	// Limit caps total fires at this point; 0 means unlimited.
	Limit int
	// Err overrides the error surfaced when firing.
	Err error
	// Delay is injected latency when firing.
	Delay time.Duration
}

// armed is one point's live state.
type armed struct {
	rule  Rule
	rng   *rand.Rand
	hits  uint64
	fires uint64
}

// Injector holds the armed rules of one chaos schedule. The zero value is
// not usable; construct with New. A nil *Injector is valid everywhere and
// never fires — the disabled state.
type Injector struct {
	mu    sync.Mutex
	seed  uint64
	rules map[Point]*armed
}

// New builds an empty injector whose per-point PRNGs derive from seed.
func New(seed uint64) *Injector {
	return &Injector{seed: seed, rules: make(map[Point]*armed)}
}

// pointSeed mixes the injector seed with the point name (FNV-1a over the
// name, then splitmix-style finalization) so each point gets an independent,
// reproducible stream.
func pointSeed(seed uint64, p Point) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= 1099511628211
	}
	z := seed ^ h
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Arm installs (or replaces) the rule for a point, resetting its hit and
// fire counters and reseeding its PRNG. Returns the injector for chaining.
func (in *Injector) Arm(p Point, r Rule) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	s := pointSeed(in.seed, p)
	in.rules[p] = &armed{
		rule: r,
		rng:  rand.New(rand.NewPCG(s, s^0x9e3779b97f4a7c15)),
	}
	return in
}

// Eval records one hit at a point and returns the verdict. Safe on a nil
// receiver (never fires) and for concurrent use.
func (in *Injector) Eval(p Point) Decision {
	if in == nil {
		return Decision{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	a := in.rules[p]
	if a == nil {
		return Decision{}
	}
	a.hits++
	fire := false
	for _, h := range a.rule.Hits {
		if uint64(h) == a.hits {
			fire = true
			break
		}
	}
	if !fire && a.rule.Prob > 0 && a.rng.Float64() < a.rule.Prob {
		fire = true
	}
	if fire && a.rule.Limit > 0 && a.fires >= uint64(a.rule.Limit) {
		fire = false
	}
	if !fire {
		return Decision{}
	}
	a.fires++
	d := Decision{Fire: true, Err: a.rule.Err, Delay: a.rule.Delay}
	if d.Err == nil {
		d.Err = injectedErr{point: p}
	}
	return d
}

// Counts reports how many times a point was hit and how many of those hits
// fired. Zero for unarmed points and nil injectors.
func (in *Injector) Counts(p Point) (hits, fires uint64) {
	if in == nil {
		return 0, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if a := in.rules[p]; a != nil {
		return a.hits, a.fires
	}
	return 0, 0
}

// String renders the armed schedule, sorted by point, for logs.
func (in *Injector) String() string {
	if in == nil {
		return "faultinject: disabled"
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	pts := make([]string, 0, len(in.rules))
	for p := range in.rules {
		pts = append(pts, string(p))
	}
	sort.Strings(pts)
	var b strings.Builder
	fmt.Fprintf(&b, "faultinject(seed=%d):", in.seed)
	for _, p := range pts {
		r := in.rules[Point(p)].rule
		fmt.Fprintf(&b, " %s{p=%g hits=%v}", p, r.Prob, r.Hits)
	}
	return b.String()
}

// ParseSpec builds an injector from a compact operator-facing schedule, the
// format of the -chaos CLI flags:
//
//	point=prob[,point=prob...]            probability per hit, in [0,1]
//	point=#h1|h2|...                      deterministic 1-based hit numbers
//	point=prob@delay                      with injected latency, e.g. 0.2@50ms
//
// Examples:
//
//	store.append.fsync=0.1,transport.reset=0.05
//	worker.crash=1,worker.slow=0.3@100ms
//	store.append.write=#1|3
//
// An empty spec returns a nil injector (chaos disabled).
func ParseSpec(spec string, seed uint64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	in := New(seed)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok || name == "" || val == "" {
			return nil, fmt.Errorf("faultinject: malformed spec entry %q (want point=prob, point=prob@delay, or point=#h1|h2)", part)
		}
		var rule Rule
		if delayStr, found := cutDelay(&val); found {
			d, err := time.ParseDuration(delayStr)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad delay in %q: %v", part, err)
			}
			if d < 0 {
				return nil, fmt.Errorf("faultinject: negative delay %v in %q", d, part)
			}
			rule.Delay = d
		}
		if strings.HasPrefix(val, "#") {
			for _, hs := range strings.Split(val[1:], "|") {
				h, err := strconv.Atoi(hs)
				if err != nil || h < 1 {
					return nil, fmt.Errorf("faultinject: bad hit number %q in %q", hs, part)
				}
				rule.Hits = append(rule.Hits, h)
			}
		} else {
			p, err := strconv.ParseFloat(val, 64)
			// The negated range test also rejects NaN, which ParseFloat
			// accepts and which would arm a rule that never fires.
			if err != nil || !(p >= 0 && p <= 1) {
				return nil, fmt.Errorf("faultinject: bad probability %q in %q (want [0,1])", val, part)
			}
			rule.Prob = p
		}
		in.Arm(Point(name), rule)
	}
	return in, nil
}

// cutDelay splits a trailing "@duration" off *val, returning the duration
// string and whether one was present.
func cutDelay(val *string) (string, bool) {
	if i := strings.IndexByte(*val, '@'); i >= 0 {
		d := (*val)[i+1:]
		*val = (*val)[:i]
		return d, true
	}
	return "", false
}
