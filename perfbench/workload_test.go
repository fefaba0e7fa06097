package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// schedule serializes everything a run derives from its seed: the
// dataset, the documents, the seeding and warm-up requests and the
// first n scheduled requests.
func schedule(t *testing.T, w Workload, seed int64, part, n int) []byte {
	t.Helper()
	g := NewGenerator(w, seed, part)
	ops := append(g.Warmup(), g.SeedBoot()...)
	for i := 0; i < n; i++ {
		ops = append(ops, g.Next())
	}
	raw, err := json.Marshal(struct {
		Dataset any
		Docs    []Doc
		Ops     []Op
	}{g.Dataset, g.Docs, ops})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a := schedule(t, w, 7, 0, 3000)
		if b := schedule(t, w, 7, 0, 3000); !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 produced two different schedules", w.Name)
		}
		if c := schedule(t, w, 8, 0, 3000); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 produced the same schedule", w.Name)
		}
		if c := schedule(t, w, 7, 1, 3000); bytes.Equal(a, c) {
			t.Errorf("%s: parts 0 and 1 of seed 7 produced the same schedule", w.Name)
		}
	}
}

func TestDistinctWorkloadsNeverRepeatAKey(t *testing.T) {
	for _, w := range workloads {
		if w.Repeat {
			continue
		}
		g := NewGenerator(w, 3, 0)
		key := func(op Op) string { return fmt.Sprintf("%s|%s|%s|%d", op.Query, op.Strategy, op.Model, op.MaxToks) }
		seen := map[string]bool{}
		for _, op := range g.Warmup() {
			seen[key(op)] = true
		}
		for i := 0; i < 5000; i++ {
			k := key(g.Next())
			if seen[k] {
				t.Fatalf("%s: request %d repeats cache key %q", w.Name, i, k)
			}
			seen[k] = true
		}
	}
}

func TestRepeatMixShares(t *testing.T) {
	w, err := findWorkload("repeat_write")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(w, 5, 0)
	kinds := map[string]int{}
	variants := map[string]int{}
	rag := 0
	const n = 20000
	for i := 0; i < n; i++ {
		op := g.Next()
		kinds[op.Kind]++
		variants[op.Variant]++
		if op.UseRAG {
			rag++
		}
	}
	const blocks = n / 100
	for kind, want := range map[string]int{opUpload: blocks / uploadEvery, opDelete: blocks / deleteEvery, opFeedback: blocks * ratesPerBlock} {
		if kinds[kind] != want {
			t.Errorf("%d %s requests, want %d", kinds[kind], kind, want)
		}
	}
	if rag != blocks*ragPerBlock {
		t.Errorf("%d use_rag queries, want %d", rag, blocks*ragPerBlock)
	}
	for _, v := range []string{variantCase, variantPunct, variantRephrase} {
		if variants[v] == 0 {
			t.Errorf("no %q variants", v)
		}
	}
}
