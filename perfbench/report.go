package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"llmms/internal/metrics"
	"llmms/internal/qcache"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// segments is how many consecutive slices of a traced pass the tables
// split queries into to show the spread of each figure.
const segments = 5

// report checks the passes and assembles the result: end-to-end metrics
// from the untraced pass, or per-layer metrics when a traced pass ran.
func report(w Workload, gen *Generator, setup []float64, base, tr *pass) *result {
	res := &result{Metrics: map[string]metric{}}
	var reasons []string
	for _, p := range []*pass{base, tr} {
		if p == nil {
			continue
		}
		bad := check(p)
		recs := p.recs
		if p.probe != nil {
			probe := &pass{recs: p.probe}
			bad = append(bad, check(probe)...)
			recs = append(append([]record(nil), recs...), probe.recs...)
		}
		res.Attempted += len(recs)
		res.Failed += len(bad)
		reasons = append(reasons, bad...)
		for _, r := range recs {
			if r.Err != "" {
				res.Failed++
				reasons = append(reasons, r.Op.Kind+": "+r.Err)
			}
		}
	}
	for i, r := range reasons {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "... and %d more failures\n", len(reasons)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "FAIL", r)
	}
	late := lateP99(base)
	res.Correct = res.Failed == 0
	if late > lateBound {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "run invalid: driver send lag p99 %.2f ms exceeds the %v bound\n", ms(float64(late)), lateBound)
	}
	printProperties(w, base)
	printOutcomes(w, base)
	if tr == nil {
		endToEnd(res, w, gen, setup, base)
	} else {
		perLayer(res, w, base, tr, late)
	}
	return res
}

// okQueries returns the successful queries of a pass.
func okQueries(recs []record) []record {
	var out []record
	for _, r := range recs {
		if r.Op.Kind == opQuery && r.Err == "" {
			out = append(out, r)
		}
	}
	return out
}

func lateP99(p *pass) time.Duration {
	var late []float64
	for _, r := range p.recs {
		if r.Sent > 0 {
			late = append(late, float64(r.Sent-r.Due))
		}
	}
	return time.Duration(percentile(late, 99))
}

func endToEnd(res *result, w Workload, gen *Generator, setup []float64, p *pass) {
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	okOps, sent, slo := 0, 0, 0
	for _, r := range p.recs {
		if r.Err == "" {
			okOps++
		}
		if r.Op.Kind != opQuery {
			continue
		}
		sent++
		if r.Err == "" && r.TTFC <= w.TTFCLimit && r.Latency <= w.LatencyLimit {
			slo++
		}
	}
	qs := okQueries(p.recs)
	var ttfc, lat, tokens []float64
	truthful := 0
	scorer := metrics.NewScorer(nil, metrics.RewardWeights{})
	for _, r := range qs {
		ttfc = append(ttfc, ms(float64(r.TTFC)))
		lat = append(lat, ms(float64(r.Latency)))
		tokens = append(tokens, float64(r.Result.TokensUsed))
		if scorer.Truthful(r.Result.Answer, gen.Dataset[r.Op.Item]) {
			truthful++
		}
	}
	// qps is the interquartile mean over one-second slices: host CPU
	// steal comes in bursts, and a mean over the window moved with each.
	_, setupMed, _ := quartiles(setup)
	put("setup_s", "s", setupMed)
	put("qps", "1/s", midMean(p.perSecond))
	put("ttfc_p50_ms", "ms", percentile(ttfc, 50))
	put("latency_p50_ms", "ms", percentile(lat, 50))
	put("slo_pct", "%", pct(float64(slo), float64(sent)))
	put("truthful_pct", "%", pct(float64(truthful), float64(len(qs))))
	put("tokens_per_answer", "tokens", mean(tokens))
	put("success_pct", "%", 100-pct(float64(res.Failed), float64(res.Attempted)))
	// A process's peak RSS moves with when its garbage collector ran;
	// the median over the parts' processes is steadier than their maximum.
	_, rssMed, _ := quartiles(p.rssMB)
	put("peak_rss_mb", "MiB", rssMed)
	fmt.Fprintf(os.Stderr, "%s: %d queries answered, %d requests sent in %.1fs (%.1f/s overall); host steal %.1f%%; setup boots %v s\n",
		w.Name, len(qs), len(p.recs), p.wall.Seconds(), float64(okOps)/p.wall.Seconds(), pct(float64(p.steal.steal), float64(p.steal.total)), setup)
	// The p99s are printed, not reported: on a virtual machine they
	// follow the host's steal bursts, and slo_pct, whose limits sit near
	// them, carries the tail instead.
	fmt.Fprintf(os.Stderr, "  %-36s %14.4f ms (%d samples)\n  %-36s %14.4f ms (%d samples)\n",
		"ttfc_p99_ms", percentile(ttfc, 99), len(ttfc), "latency_p99_ms", percentile(lat, 99), len(lat))
	printMetrics(res.Metrics)
}

// printProperties records the measured shape of the traffic sent.
func printProperties(w Workload, p *pass) {
	seen := map[string]bool{}
	var queries, repeats, variants, rag, uploads int
	strat := map[string]int{}
	for _, r := range p.recs {
		switch r.Op.Kind {
		case opUpload:
			uploads++
		case opQuery:
			queries++
			// Each part's process has its own cache, so a key repeats
			// only within a part.
			key := fmt.Sprint(r.Part, "|", qcache.Normalize(r.Op.Query), "|", r.Op.Strategy, r.Op.Model, r.Op.MaxToks, r.Op.UseRAG)
			if seen[key] {
				repeats++
			}
			seen[key] = true
			if r.Op.Variant == variantPunct || r.Op.Variant == variantRephrase {
				variants++
			}
			if r.Op.UseRAG {
				rag++
			}
			strat[r.Op.Strategy]++
		}
	}
	var mix []string
	for _, s := range strategyMix {
		mix = append(mix, fmt.Sprintf("%s %.1f%%", s.name, pct(float64(strat[s.name]), float64(queries))))
	}
	fmt.Fprintf(os.Stderr, "properties %s: repeated keys %.1f%%, semantic variants %.1f%%, use_rag %.1f%%, uploads %.2f per 1000 requests, strategy mix %s\n",
		w.Name, pct(float64(repeats), float64(queries)), pct(float64(variants), float64(queries)),
		pct(float64(rag), float64(queries)), 1000*ratio(float64(uploads), float64(len(p.recs))), strings.Join(mix, ", "))
}

// printOutcomes records how the server answered the pass: the share of
// each X-Cache outcome, of each routing outcome among orchestrated
// queries, and the mean tokens each kind of answer reported.
func printOutcomes(w Workload, p *pass) {
	cache, route := map[string]float64{}, map[string]float64{}
	tokens := map[string][]float64{}
	var queries, routed, all float64
	for _, r := range okQueries(p.recs) {
		queries++
		all += float64(r.Result.TokensUsed)
		cache[r.Cache]++
		tokens[r.Cache] = append(tokens[r.Cache], float64(r.Result.TokensUsed))
		if r.Route != "" {
			routed++
			route[r.Route]++
		}
	}
	shares := func(m map[string]float64, of float64, tokens map[string][]float64) string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var out []string
		for _, k := range keys {
			s := fmt.Sprintf("%s %.1f%%", k, pct(m[k], of))
			if t, ok := tokens[k]; ok {
				s += fmt.Sprintf(" (%.1f tokens)", mean(t))
			}
			out = append(out, s)
		}
		return strings.Join(out, ", ")
	}
	fmt.Fprintf(os.Stderr, "outcomes %s: %.1f tokens per answer; cache %s; route %s\n", w.Name, ratio(all, queries), shares(cache, queries, tokens), shares(route, routed, nil))
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// traced is one orchestrated query of a traced pass, broken down.
type traced struct {
	rec     record
	module  map[string]float64   // attributed wall ns per module
	self    map[string][]float64 // self ns per span name
	spans   int
	rootDur float64
}

func perLayer(res *result, w Workload, base, tr *pass, late time.Duration) {
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	ws := tr.win
	recs := tr.recs
	var queries, sent, hitExact, hitSem, coalesced float64
	var rounds, prunes, early, scoreNs, stallNs, orchestrated float64
	var uploadMs []float64
	for _, r := range recs {
		if r.Op.Kind == opUpload && r.Err == "" {
			uploadMs = append(uploadMs, ms(float64(r.Latency)))
		}
		if r.Op.Kind != opQuery {
			continue
		}
		sent++
		if r.Err != "" {
			continue
		}
		queries++
		switch r.Cache {
		case "HIT":
			hitExact++
		case "SEMANTIC":
			hitSem++
		case "COALESCED":
			coalesced++
		case "MISS":
			orchestrated++
			rounds += float64(r.Result.Rounds)
			prunes += float64(r.Prunes)
			if r.Result.EarlyExit {
				early++
			}
			scoreNs += float64(r.ScoreNs)
			stallNs += float64(r.StallNs)
		}
	}
	// Documents-collection and rag figures come from the probe on
	// workloads without RAG traffic.
	docsWin, ragRecs := ws, recs
	if tr.probe != nil {
		docsWin, ragRecs = tr.probeWin, tr.probe
		for _, r := range tr.probe {
			if r.Op.Kind == opUpload && r.Err == "" {
				uploadMs = append(uploadMs, ms(float64(r.Latency)))
			}
		}
	}

	tq := breakdown(recs)
	var retrieve []float64
	for _, t := range breakdown(ragRecs) {
		retrieve = append(retrieve, t.self["retrieve"]...)
	}
	selfP50 := func(names ...string) float64 {
		var xs []float64
		for _, t := range tq {
			for _, n := range names {
				xs = append(xs, t.self[n]...)
			}
		}
		return ms(percentile(xs, 50))
	}
	var spans []float64
	for _, t := range tq {
		spans = append(spans, float64(t.spans))
	}
	decisions := ws.delta("llmms_route_decisions_total")
	fallbacks := 0.0
	for _, o := range []string{"fallback_cold", "fallback_far", "fallback_few_obs", "fallback_variance"} {
		fallbacks += ws.delta("llmms_route_decisions_total", `outcome="`+o+`"`)
	}
	var baseLat, trLat []float64
	for _, r := range okQueries(base.recs) {
		baseLat = append(baseLat, float64(r.Latency))
	}
	for _, r := range okQueries(tr.recs) {
		trLat = append(trLat, float64(r.Latency))
	}

	put("server.self_ms", "ms", selfP50("query"))
	put("server.sse_frames_per_query", "count", ratio(ws.delta("llmms_sse_frames_written_total"), queries))
	put("qcache.hit_exact_pct", "%", pct(hitExact, sent))
	put("qcache.hit_semantic_pct", "%", pct(hitSem, sent))
	put("qcache.coalesced_pct", "%", pct(coalesced, sent))
	put("qcache.lookup_us", "us", 1e6*ws.histMean("llmms_cache_lookup_duration_seconds"))
	put("qcache.gate_wait_ms", "ms", 1e3*ws.histMean("llmms_admission_queue_wait_seconds"))
	put("qcache.rejected_pct", "%", pct(ws.delta("llmms_admission_rejected_total"), sent))
	put("router.width_avg", "models", ws.histMean("llmms_route_width"))
	put("router.topk_pct", "%", pct(ws.delta("llmms_route_decisions_total", `outcome="topk"`), decisions))
	put("router.fallback_pct", "%", pct(fallbacks, decisions))
	put("router.predict_ms", "ms", selfP50("route.predict"))
	put("core.rounds_per_query", "count", ratio(rounds, orchestrated))
	put("core.prunes_per_query", "count", ratio(prunes, orchestrated))
	put("core.early_exit_pct", "%", pct(early, orchestrated))
	put("core.score_ms_per_query", "ms", ms(ratio(scoreNs, orchestrated)))
	put("core.round_stall_ms_per_query", "ms", ms(ratio(stallNs, orchestrated)))
	put("core.orchestrate_self_ms", "ms", selfP50("orchestrate"))
	put("core.stream_fallbacks", "count", ws.delta("llmms_stream_fallbacks_total"))
	put("core.retries", "count", ws.delta("llmms_chunk_retries_total"))
	put("llm.batch_step_ms", "ms", 1e3*ws.histMean("llmms_batch_step_seconds"))
	put("llm.batch_admission_wait_ms", "ms", 1e3*ws.histMean("llmms_batch_admission_wait_seconds"))
	put("llm.seqs_per_step", "count", ratio(ws.delta("llmms_tokens_generated_total"), ws.delta("llmms_batch_steps_total")))
	put("fleet.call_ms", "ms", selfP50("fleet.call", "fleet.stream_open"))
	put("fleet.breaker_transitions", "count", ws.delta("llmms_fleet_breaker_transitions_total"))
	put("fleet.hedges", "count", ws.delta("llmms_fleet_hedges_total"))
	put("vectordb.insert_ms.route_clusters", "ms", 1e3*ws.histMean("llmms_vectordb_insert_seconds", `collection="route_clusters"`))
	put("vectordb.insert_ms.documents", "ms", 1e3*docsWin.histMean("llmms_vectordb_insert_seconds", `collection="documents"`))
	put("vectordb.query_ms.documents", "ms", 1e3*docsWin.histMean("llmms_vectordb_query_seconds", `collection="documents"`))
	put("vectordb.wal_bytes_per_query", "bytes", ratio(ws.delta("llmms_vectordb_wal_bytes_total"), queries))
	put("vectordb.recovery_s", "s", ws.gauge("llmms_vectordb_recovery_seconds"))
	put("rag.retrieve_ms", "ms", ms(percentile(retrieve, 50)))
	put("rag.upload_ms", "ms", percentile(uploadMs, 50))
	put("telemetry.spans_per_query", "count", mean(spans))
	put("telemetry.trace_overhead_pct", "%", pct(percentile(trLat, 50)-percentile(baseLat, 50), percentile(baseLat, 50)))
	put("runtime.gc_per_query", "count", ratio(ws.delta("llmms_go_gc_cycles"), queries))
	put("runtime.heap_mb", "MiB", ws.gauge("llmms_go_heap_alloc_bytes")/(1<<20))
	put("driver.late_p99_ms", "ms", ms(float64(late)))
	put("driver.cpu_pct", "%", pct(base.cpu.Seconds(), base.wall.Seconds()*float64(runtime.NumCPU())))
	put("driver.steal_pct", "%", pct(float64(base.steal.steal), float64(base.steal.total)))
	put("server.unattributed_ms", "ms", printTables(w, tq))
	printMetrics(res.Metrics)
}

// breakdown resolves the span tree of every traced query.
func breakdown(recs []record) []traced {
	var out []traced
	for _, r := range recs {
		if r.Err != "" || len(r.Spans) == 0 {
			continue
		}
		t := newSpanTree(r.Spans)
		if t.root < 0 {
			continue
		}
		q := traced{rec: r, module: map[string]float64{}, self: map[string][]float64{}, spans: len(r.Spans),
			rootDur: float64(t.spans[t.root].b - t.spans[t.root].a)}
		attr := t.attribute()
		for _, i := range t.reached {
			q.module[moduleOf(t.names[i])] += attr[i]
			q.self[t.names[i]] = append(q.self[t.names[i]], float64(t.selfTime(i)))
		}
		// Time the server's span tree does not cover: the driver's own
		// send lag, then HTTP, SSE transport and work the server does
		// after its root span ends.
		q.module["driver"] = float64(r.Sent - r.Due)
		q.module["unattributed"] = float64(r.Latency-(r.Sent-r.Due)) - q.rootDur
		out = append(out, q)
	}
	return out
}

// printTables prints the per-span self-time table and the per-module
// table that accounts for the median query latency, and returns the
// unattributed share of that latency in ms.
func printTables(w Workload, tq []traced) float64 {
	if len(tq) == 0 {
		fmt.Fprintf(os.Stderr, "%s: no traced queries\n", w.Name)
		return 0
	}
	seg := func(i int) int { return i * segments / len(tq) }

	names := map[string]bool{}
	for _, t := range tq {
		for n := range t.self {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	fmt.Fprintf(os.Stderr, "\n%s: span self time over %d traced queries (spread: q1-q3 of the p50 across %d consecutive segments)\n", w.Name, len(tq), segments)
	fmt.Fprintf(os.Stderr, "  %-20s %8s %10s %10s %21s\n", "span", "count", "p50 ms", "p99 ms", "p50 spread ms")
	for _, n := range sorted {
		var all []float64
		per := make([][]float64, segments)
		for i, t := range tq {
			all = append(all, t.self[n]...)
			per[seg(i)] = append(per[seg(i)], t.self[n]...)
		}
		var p50s []float64
		for _, xs := range per {
			if len(xs) > 0 {
				p50s = append(p50s, ms(percentile(xs, 50)))
			}
		}
		q1, _, q3 := quartiles(p50s)
		fmt.Fprintf(os.Stderr, "  %-20s %8d %10.4f %10.4f %10.4f-%-10.4f\n", n, len(all), ms(percentile(all, 50)), ms(percentile(all, 99)), q1, q3)
	}

	// The median band: queries whose latency lies between the 45th and
	// 55th percentile. Mean per-module time over the band adds up to the
	// band's mean latency, which is the median latency within the band.
	var lat []float64
	for _, t := range tq {
		lat = append(lat, float64(t.rec.Latency))
	}
	lo, hi := percentile(lat, 45), percentile(lat, 55)
	modules := map[string]bool{}
	for _, t := range tq {
		for m := range t.module {
			modules[m] = true
		}
	}
	mods := make([]string, 0, len(modules))
	for m := range modules {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	var band []traced
	for _, t := range tq {
		if l := float64(t.rec.Latency); l >= lo && l <= hi {
			band = append(band, t)
		}
	}
	bandLat := 0.0
	for _, t := range band {
		bandLat += float64(t.rec.Latency)
	}
	bandLat /= float64(len(band))
	fmt.Fprintf(os.Stderr, "\n%s: where the median query's time goes (%d queries at p45-p55 latency, mean %.3f ms; median latency %.3f ms)\n",
		w.Name, len(band), ms(bandLat), ms(percentile(lat, 50)))
	fmt.Fprintf(os.Stderr, "  %-14s %10s %7s %10s %10s %21s\n", "module", "band ms", "share", "p50 ms", "p99 ms", "mean spread ms")
	unattributed, total := 0.0, 0.0
	for _, m := range mods {
		var bandSum float64
		for _, t := range band {
			bandSum += t.module[m]
		}
		bandMean := bandSum / float64(len(band))
		var all []float64
		per := make([][]float64, segments)
		for i, t := range tq {
			all = append(all, t.module[m])
			per[seg(i)] = append(per[seg(i)], t.module[m])
		}
		var means []float64
		for _, xs := range per {
			if len(xs) > 0 {
				means = append(means, ms(mean(xs)))
			}
		}
		q1, _, q3 := quartiles(means)
		fmt.Fprintf(os.Stderr, "  %-14s %10.4f %6.1f%% %10.4f %10.4f %10.4f-%-10.4f\n",
			m, ms(bandMean), pct(bandMean, bandLat), ms(percentile(all, 50)), ms(percentile(all, 99)), q1, q3)
		total += bandMean
		if m == "unattributed" {
			unattributed = bandMean
		}
	}
	fmt.Fprintf(os.Stderr, "  %-14s %10.4f %6.1f%%\n\n", "total", ms(total), pct(total, bandLat))
	return ms(unattributed)
}
