package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json that compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two JSON-lines files of records written by --out:
// per workload and metric, the median of each side and the change. It
// refuses — exit code 3, no verdict — when the two sides were measured on
// different machines or ran a workload for different amounts of work, and
// exits 2 on unusable input: a record of a run whose checks failed, or no
// readable BENCHMARK.json in the current directory. Otherwise it exits 1
// when an end-to-end metric worsened by more than its BENCHMARK.json bound,
// and 0 when none did.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BEFORE.jsonl AFTER.jsonl")
		return 2
	}
	sides := make([][]record, 2)
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
		if len(recs) == 0 {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s holds no records\n", path)
			return 2
		}
		for _, r := range recs {
			if !r.Result.Correct {
				fmt.Fprintf(os.Stderr, "perfbench compare: %s: the %s run with seed %d failed its checks; its numbers are not comparable\n",
					path, r.Workload, r.Seed)
				return 2
			}
			if r.Machine != recs[0].Machine {
				fmt.Fprintf(os.Stderr, "perfbench compare: refused: %s mixes machines %+v and %+v\n", path, recs[0].Machine, r.Machine)
				return 3
			}
		}
		sides[i] = recs
	}
	if a, b := sides[0][0].Machine, sides[1][0].Machine; a != b {
		fmt.Fprintf(os.Stderr, "perfbench compare: refused: different machines\n  before %+v\n  after  %+v\n", a, b)
		return 3
	}
	// Every run of one workload, on both sides, must have done the same
	// fixed work.
	type work struct {
		seconds              float64
		passes, setupRepeats int
	}
	works := map[string]work{}
	for _, recs := range sides {
		for _, r := range recs {
			wk := fmt.Sprintf("%s trace=%v", r.Workload, r.Trace)
			w := work{r.Seconds, r.Passes, r.SetupRepeats}
			if seen, ok := works[wk]; !ok {
				works[wk] = w
			} else if seen != w {
				fmt.Fprintf(os.Stderr, "perfbench compare: refused: %s ran as %+v and as %+v\n", wk, seen, w)
				return 3
			}
		}
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare: run from the repository root:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare: BENCHMARK.json:", err)
		return 2
	}
	type limit struct {
		lower bool // lower is better
		bound float64
	}
	bounds := map[string]limit{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = limit{m.Better == "lower", m.Bound}
	}
	type key struct {
		workload string
		trace    bool
		name     string
	}
	values := func(recs []record) map[key][]float64 {
		out := make(map[key][]float64)
		for _, r := range recs {
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, r.Trace, name}
				out[k] = append(out[k], m.Value)
			}
		}
		return out
	}
	before, after := values(sides[0]), values(sides[1])
	keys := make([]key, 0, len(before))
	for k := range before {
		if _, ok := after[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j])
	})
	worse := false
	for _, k := range keys {
		a, b := quantile(before[k], 0.5), quantile(after[k], 0.5)
		change := (b - a) / a
		verdict := ""
		if bd, ok := bounds[k.name]; ok && !k.trace {
			if (bd.lower && change > bd.bound) || (!bd.lower && change < -bd.bound) {
				verdict, worse = "WORSE than bound", true
			} else {
				verdict = "within bound"
			}
		}
		fmt.Printf("%-16s trace=%-5v %-36s %14.6g -> %14.6g  %+7.2f%%  %s\n",
			k.workload, k.trace, k.name, a, b, 100*change, verdict)
	}
	if worse {
		return 1
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
