package main

import (
	"fmt"
	"slices"
	"strconv"

	"llmms/internal/qcache"
)

// check verifies every request of a pass and sets rec.Err on each one
// that failed a check. It returns counter checks that failed for the
// pass as a whole, each counting as one failure.
//
// Per query: a 200 that ends in a result frame, whose answer equals the
// winner frame's text, whose model is in the pool (the requested model
// for single), with tokens_used > 0. A HIT or COALESCED reply must carry
// an answer some MISS of the same key produced, and a SEMANTIC reply one
// some MISS in the same scope produced; warm-up MISSes count as fillers.
// Per pass: no stream fallbacks and no breaker transitions on a clean
// run.
func check(p *pass) []string {
	type answer struct{ text, model string }
	byKey := map[string][]answer{}
	byScope := map[string][]answer{}
	scopeOf := func(op Op) string {
		return op.Strategy + "|" + op.Model + "|" + strconv.Itoa(op.MaxToks) + "|" + strconv.FormatBool(op.UseRAG)
	}
	keyOf := func(op Op) string { return qcache.Normalize(op.Query) + "\x1f" + scopeOf(op) }
	for i := range p.recs {
		r := &p.recs[i]
		if r.Err != "" || r.Op.Kind != opQuery {
			continue
		}
		switch {
		case !r.HaveResult:
			r.Err = "no result frame"
		case r.Result.Answer != r.Winner:
			r.Err = fmt.Sprintf("result answer %q differs from winner frame %q", r.Result.Answer, r.Winner)
		case r.Op.Model != "" && r.Result.Model != r.Op.Model,
			!slices.Contains(pool, r.Result.Model):
			r.Err = fmt.Sprintf("result model %q not in the queried pool", r.Result.Model)
		case r.Result.TokensUsed <= 0:
			r.Err = "tokens_used is 0"
		}
	}
	for _, recs := range [][]record{p.warm, p.recs} {
		for _, r := range recs {
			if r.Err == "" && r.Op.Kind == opQuery && r.Cache == "MISS" {
				a := answer{r.Result.Answer, r.Result.Model}
				byKey[keyOf(r.Op)] = append(byKey[keyOf(r.Op)], a)
				byScope[scopeOf(r.Op)] = append(byScope[scopeOf(r.Op)], a)
			}
		}
	}
	for i := range p.recs {
		r := &p.recs[i]
		if r.Err != "" || r.Op.Kind != opQuery {
			continue
		}
		a := answer{r.Result.Answer, r.Result.Model}
		switch r.Cache {
		case "MISS":
		case "HIT", "COALESCED":
			if !slices.Contains(byKey[keyOf(r.Op)], a) {
				r.Err = r.Cache + " reply differs from every MISS of its key"
			}
		case "SEMANTIC":
			if !slices.Contains(byScope[scopeOf(r.Op)], a) {
				r.Err = "SEMANTIC reply differs from every MISS in its scope"
			}
		default:
			r.Err = fmt.Sprintf("unexpected X-Cache %q", r.Cache)
		}
	}
	var bad []string
	for _, name := range []string{"llmms_stream_fallbacks_total", "llmms_fleet_breaker_transitions_total"} {
		if n := p.win.delta(name); n != 0 {
			bad = append(bad, fmt.Sprintf("%s rose by %g on a clean run", name, n))
		}
	}
	return bad
}
