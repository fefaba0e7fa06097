package main

import (
	"math"
	"testing"
	"time"
)

// span builds a test span starting at ms a and lasting ms d.
func mkSpan(id, parent, name string, a, d int64) spanJSON {
	return spanJSON{SpanID: id, ParentID: parent, Name: name,
		Start: time.Unix(0, a*1e6), Duration: d * 1e6}
}

// The tree: root [0,100) with parallel children A [10,50) and B [30,70)
// that overlap, A's nested child A1 [20,40), and G [80,90) grafted under
// a parent that is absent from the trace.
func testTree() (*spanTree, map[string]int) {
	in := []spanJSON{
		mkSpan("a1", "a", "A1", 20, 20),
		mkSpan("a", "r", "A", 10, 40),
		mkSpan("b", "r", "B", 30, 40),
		mkSpan("g", "missing", "G", 80, 10),
		mkSpan("r", "", "query", 0, 100),
	}
	t := newSpanTree(in)
	idx := map[string]int{}
	for i, s := range in {
		idx[s.Name] = i
	}
	return t, idx
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	tree, idx := testTree()
	if tree.root != idx["query"] {
		t.Fatalf("root = %d, want the parentless span %d", tree.root, idx["query"])
	}
	want := map[string]int64{
		"query": 30, // 100 minus A∪B = [10,70) and the grafted G [80,90)
		"A":     20, // 40 minus A1
		"B":     40,
		"A1":    20,
		"G":     10,
	}
	for name, ms := range want {
		if got := tree.selfTime(idx[name]); got != ms*1e6 {
			t.Errorf("self(%s) = %v ms, want %d", name, float64(got)/1e6, ms)
		}
	}
}

func TestAttributeSplitsOverlapsAndSumsToRoot(t *testing.T) {
	tree, idx := testTree()
	attr := tree.attribute()
	// [30,40) is shared by A1 and B, [40,50) by A and B.
	want := map[string]float64{"query": 30, "A": 15, "A1": 15, "B": 30, "G": 10}
	total := 0.0
	for name, ms := range want {
		got := attr[idx[name]] / 1e6
		total += got
		if math.Abs(got-ms) > 1e-9 {
			t.Errorf("attributed(%s) = %v ms, want %v", name, got, ms)
		}
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("attributed total = %v ms, want the root's 100", total)
	}
}

func TestChildrenClippedToParent(t *testing.T) {
	in := []spanJSON{
		mkSpan("r", "", "query", 0, 10),
		mkSpan("c", "r", "late", 5, 20), // runs past the root's end
	}
	tree := newSpanTree(in)
	if got := tree.selfTime(0); got != 5e6 {
		t.Errorf("root self = %v, want 5ms", got)
	}
	if got := tree.selfTime(1); got != 5e6 {
		t.Errorf("clipped child self = %v, want 5ms", got)
	}
}

func TestModuleOf(t *testing.T) {
	for name, want := range map[string]string{
		"query": "server", "gate.wait": "qcache", "route.predict": "router",
		"round": "core", "chunk": "llm", "fleet.call": "fleet", "retrieve": "rag",
	} {
		if got := moduleOf(name); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", name, got, want)
		}
	}
}
