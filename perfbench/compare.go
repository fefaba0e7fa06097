package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Compare mode: "perfbench compare BASE CHANGE" reads two JSON-lines
// files of runs written with -record (the parent commit's and the
// change's, same benchmark code and seeds) and prints, per workload and
// metric, each side's median and quartiles. End-to-end metrics get one
// verdict each, with the bounds and directions of BENCHMARK.json:
//
//   - improved: the change wins at least 9/10 of the seed-paired runs
//     and the medians differ by more than the parent's quartile spread
//     (or, when the spread exceeds the bound, every change run beats
//     every parent run);
//   - unresolved: the parent's spread exceeds the bound;
//   - regressed: the change's median is worse by more than the bound;
//   - unchanged: otherwise.

// runRecord is one line of a -record file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// spec is one end-to-end metric of BENCHMARK.json.
type spec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.jsonl CHANGE.jsonl (run from the directory holding BENCHMARK.json)")
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	var bench struct {
		EndToEnd []spec `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare: BENCHMARK.json:", err)
		return 1
	}
	base, err := loadRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	change, err := loadRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	specs := map[string]spec{}
	for _, s := range bench.EndToEnd {
		specs[s.Name] = s
	}
	type group struct {
		workload string
		trace    int
	}
	groups := map[group]bool{}
	for _, r := range append(append([]runRecord(nil), base...), change...) {
		groups[group{r.Workload, r.Trace}] = true
	}
	keys := make([]group, 0, len(groups))
	for g := range groups {
		keys = append(keys, g)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].trace < keys[j].trace
	})
	fmt.Printf("%-14s %-34s %-6s %12s %25s %12s %25s %6s  %s\n",
		"workload", "metric", "unit", "base med", "base q1-q3", "change med", "change q1-q3", "wins", "verdict")
	for _, g := range keys {
		b := runsOf(base, g.workload, g.trace)
		c := runsOf(change, g.workload, g.trace)
		for _, name := range metricNames(b, c) {
			bs, cs := pairValues(b, c, name)
			if len(bs.all) == 0 || len(cs.all) == 0 {
				continue
			}
			unit := ""
			if len(b) > 0 {
				unit = b[0].Result.Metrics[name].Unit
			}
			b1, bm, b3 := quartiles(bs.all)
			c1, cm, c3 := quartiles(cs.all)
			v, wins := "-", "-"
			if s, ok := specs[name]; ok && g.trace == 0 {
				var w int
				v, w = verdict(s, bs, cs)
				wins = fmt.Sprintf("%d/%d", w, len(bs.paired))
			}
			fmt.Printf("%-14s %-34s %-6s %12.4f %12.4f-%-12.4f %12.4f %12.4f-%-12.4f %6s  %s\n",
				g.workload, name, unit, bm, b1, b3, cm, c1, c3, wins, v)
		}
	}
	return 0
}

func loadRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func runsOf(recs []runRecord, workload string, trace int) []runRecord {
	var out []runRecord
	for _, r := range recs {
		if r.Workload == workload && r.Trace == trace {
			out = append(out, r)
		}
	}
	return out
}

func metricNames(sets ...[]runRecord) []string {
	names := map[string]bool{}
	for _, set := range sets {
		for _, r := range set {
			for n := range r.Result.Metrics {
				names[n] = true
			}
		}
	}
	out := make([]string, 0, len(names))
	for n := range names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// sample is one side's values of a metric: every run, and the runs
// whose seed the other side also ran, in matching order.
type sample struct {
	all, paired []float64
}

// pairValues pairs runs by seed; sides without a common seed pair by
// order.
func pairValues(base, change []runRecord, name string) (sample, sample) {
	var b, c sample
	bySeed := map[int64]float64{}
	for _, r := range base {
		if m, ok := r.Result.Metrics[name]; ok {
			b.all = append(b.all, m.Value)
			bySeed[r.Seed] = m.Value
		}
	}
	for _, r := range change {
		m, ok := r.Result.Metrics[name]
		if !ok {
			continue
		}
		c.all = append(c.all, m.Value)
		if v, ok := bySeed[r.Seed]; ok {
			b.paired = append(b.paired, v)
			c.paired = append(c.paired, m.Value)
		}
	}
	if len(b.paired) == 0 {
		n := min(len(b.all), len(c.all))
		b.paired, c.paired = b.all[:n], c.all[:n]
	}
	return b, c
}

// verdict judges one end-to-end metric and returns the change's wins.
func verdict(s spec, base, change sample) (string, int) {
	better := func(x, y float64) bool { // x better than y
		if s.Better == "higher" {
			return x > y
		}
		return x < y
	}
	wins := 0
	for i := range base.paired {
		if better(change.paired[i], base.paired[i]) {
			wins++
		}
	}
	b1, bm, b3 := quartiles(base.all)
	_, cm, _ := quartiles(change.all)
	allBetter := true
	for _, c := range change.all {
		for _, b := range base.all {
			if !better(c, b) {
				allBetter = false
			}
		}
	}
	worse := (cm - bm) / math.Abs(bm)
	if s.Better == "higher" {
		worse = -worse
	}
	switch {
	case (b3-b1)/math.Abs(bm) > s.Bound:
		if allBetter {
			return "improved", wins
		}
		return "unresolved", wins
	case 10*wins >= 9*len(base.paired) && len(base.paired) > 0 && better(cm, bm) && math.Abs(cm-bm) > b3-b1:
		return "improved", wins
	case worse > s.Bound:
		return "regressed", wins
	}
	return "unchanged", wins
}
