package main

import (
	"sort"
	"strings"
)

// This file turns the span tree llmms keeps for each query
// (/api/traces/{id}) into self times. A span's self time is its
// duration minus the union of its children's intervals: children of a
// parallel fan-out overlap, so subtracting their summed durations would
// count the same wall time twice.

// interval is a half-open time range [a, b) in nanoseconds.
type interval struct{ a, b int64 }

// spanTree is one trace's spans with parent links resolved.
type spanTree struct {
	names    []string
	spans    []interval
	children [][]int
	root     int
	reached  []int // spans reachable from the root, parents first
}

// newSpanTree links spans by parent ID. The root is the span without a
// parent; a span whose parent is absent from the trace (grafted from
// another process, or its parent dropped past the span cap) hangs under
// the root. Children are clipped to their parent's interval.
func newSpanTree(in []spanJSON) *spanTree {
	t := &spanTree{root: -1, children: make([][]int, len(in))}
	index := make(map[string]int, len(in))
	for i, s := range in {
		a := s.Start.UnixNano()
		t.names = append(t.names, s.Name)
		t.spans = append(t.spans, interval{a, a + s.Duration})
		index[s.SpanID] = i
	}
	for i, s := range in {
		if s.ParentID == "" && (t.root < 0 || t.spans[i].b-t.spans[i].a > t.spans[t.root].b-t.spans[t.root].a) {
			t.root = i
		}
	}
	if t.root < 0 {
		return t
	}
	for i, s := range in {
		if i == t.root {
			continue
		}
		p, ok := index[s.ParentID]
		if !ok || p == i {
			p = t.root
		}
		t.children[p] = append(t.children[p], i)
	}
	// Clip top-down so every span lies inside its parent. Spans on a
	// parent cycle are never reached from the root and stay unattributed.
	t.reached = []int{t.root}
	for k := 0; k < len(t.reached); k++ {
		p := t.reached[k]
		for _, c := range t.children[p] {
			t.spans[c].a = max(t.spans[c].a, t.spans[p].a)
			t.spans[c].b = max(min(t.spans[c].b, t.spans[p].b), t.spans[c].a)
			t.reached = append(t.reached, c)
		}
	}
	return t
}

// union merges intervals into sorted, disjoint ranges.
func union(in []interval) []interval {
	s := append([]interval(nil), in...)
	sort.Slice(s, func(i, j int) bool { return s[i].a < s[j].a })
	var out []interval
	for _, iv := range s {
		if iv.b <= iv.a {
			continue
		}
		if n := len(out); n > 0 && iv.a <= out[n-1].b {
			out[n-1].b = max(out[n-1].b, iv.b)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// selfIntervals returns the parts of span i no child covers.
func (t *spanTree) selfIntervals(i int) []interval {
	kids := make([]interval, len(t.children[i]))
	for k, c := range t.children[i] {
		kids[k] = t.spans[c]
	}
	var out []interval
	cur := t.spans[i].a
	for _, iv := range union(kids) {
		if iv.a > cur {
			out = append(out, interval{cur, iv.a})
		}
		cur = max(cur, iv.b)
	}
	if cur < t.spans[i].b {
		out = append(out, interval{cur, t.spans[i].b})
	}
	return out
}

// selfTime is span i's duration minus the union of its children.
func (t *spanTree) selfTime(i int) int64 {
	var total int64
	for _, iv := range t.selfIntervals(i) {
		total += iv.b - iv.a
	}
	return total
}

// attribute splits the root's wall time among spans: each instant goes
// to the spans whose self intervals cover it, shared equally between
// parallel spans. The shares sum to the root's duration, so per-module
// totals account for the whole query without double counting.
func (t *spanTree) attribute() []float64 {
	out := make([]float64, len(t.names))
	if t.root < 0 {
		return out
	}
	type edge struct {
		at   int64
		span int
		open bool
	}
	var edges []edge
	for _, i := range t.reached {
		for _, iv := range t.selfIntervals(i) {
			edges = append(edges, edge{iv.a, i, true}, edge{iv.b, i, false})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	active := map[int]int{}
	var prev int64
	for _, e := range edges {
		if n := len(active); n > 0 && e.at > prev {
			share := float64(e.at-prev) / float64(n)
			for s := range active {
				out[s] += share
			}
		}
		prev = e.at
		if e.open {
			active[e.span]++
		} else if active[e.span]--; active[e.span] == 0 {
			delete(active, e.span)
		}
	}
	return out
}

// moduleOf maps a span name to the repository module that opens it.
func moduleOf(name string) string {
	switch name {
	case "query":
		return "server"
	case "cache.lookup", "gate.wait":
		return "qcache"
	case "route.predict":
		return "router"
	case "retrieve":
		return "rag"
	case "orchestrate", "round":
		return "core"
	case "chunk":
		return "llm"
	}
	if mod, _, ok := strings.Cut(name, "."); ok {
		return mod
	}
	return name
}
