// Command perfbench is the repository's end-to-end benchmark. It boots
// the llmms binary built from this checkout as a real process, drives it
// over loopback HTTP with a seeded workload, checks every answer, and
// prints one JSON result as its last line of output:
//
//	perfbench -llmms BIN --workload cold_cpu --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 replays the same
// schedule on a fresh process, fetches every orchestrated query's span
// tree, and reports per-layer metrics with a per-module self-time table
// on standard error. "perfbench compare BASE CHANGE" compares two sets
// of recorded runs (see compare.go). perfbench/run.sh builds both
// binaries and is the command BENCHMARK.json declares.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupBoots is how many times a run boots llmms, back to back before
// the measured parts, to measure setup_s. A boot right after a measured
// part took up to half again as long, so the parts' own boots are not
// timed.
const setupBoots = 7

func main() {
	bin := flag.String("llmms", "", "llmms binary under test")
	work := flag.String("work", filepath.Join(".bench_build", "runs"), "directory for run files (removed after the run)")
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "seconds each pass measures")
	trace := flag.Int("trace", 0, "1 replays the pass traced and reports per-layer metrics")
	recordTo := flag.String("record", "", "also append the result to this JSON-lines file, for compare mode")
	flag.Parse()
	if flag.Arg(0) == "compare" {
		os.Exit(compareMain(flag.Args()[1:]))
	}
	if *bin == "" || *name == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -llmms BIN --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(*bin, *work, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *recordTo != "" {
		if err := appendRecord(*recordTo, w.Name, *seed, *trace, res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	fmt.Println(string(line))
}

// pass is what a run measured: its parts' requests and /metrics
// windows, merged.
type pass struct {
	recs []record
	warm []record // warm-up requests: cache fillers, never timed
	wall time.Duration
	// perSecond counts the requests answered in each whole second of
	// each part's window.
	perSecond []float64
	win       windows
	rssMB     []float64 // each part's process's peak RSS
	cpu       time.Duration
	steal     cpuTicks // host CPU stolen from this machine during the parts
	// probe is the traced pass's post-window RAG probe on workloads
	// without RAG traffic; probeWin spans each part's window and probe.
	probe    []record
	probeWin windows
}

// add merges one part's measurements into p.
func (p *pass) add(q *pass) {
	p.recs = append(p.recs, q.recs...)
	p.warm = append(p.warm, q.warm...)
	p.wall += q.wall
	p.perSecond = append(p.perSecond, q.perSecond...)
	p.win = append(p.win, q.win...)
	p.rssMB = append(p.rssMB, q.rssMB...)
	p.cpu += q.cpu
	p.steal = p.steal.add(q.steal)
	p.probe = append(p.probe, q.probe...)
	p.probeWin = append(p.probeWin, q.probeWin...)
}

// parts is how many independent processes, each with its own request
// stream, share a run's measured time. The routing index's learned state
// drifts: over two-second windows of one stream, the share of queries it
// narrowed swung between 13% and 58%, and token spend with it. Pooling
// three streams averages the drift over independent indexes; more parts
// would each pay a warm-up, which costs measured time. A traced run
// measures two parts untraced and replays them traced, to take not much
// longer than an untraced run.
const parts = 3

// run executes one benchmark run: seeding boot (repeat_write), setup
// boots, the measured parts, and with traced a traced replay of them,
// each part on a fresh process.
func run(bin, work string, w Workload, seed int64, dur time.Duration, traced bool) (*result, error) {
	conns := min(2, runtime.NumCPU())
	dir, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("%s-%d-%d", w.Name, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	gen := NewGenerator(w, seed, 0)
	dataset := filepath.Join(dir, "dataset.json")
	if err := gen.Dataset.SaveJSON(dataset); err != nil {
		return nil, err
	}
	seedData := ""
	if w.Repeat {
		seedData = filepath.Join(dir, "seed-data")
		if err := seedBoot(bin, w, gen, dir, seedData, dataset); err != nil {
			return nil, fmt.Errorf("seeding boot: %w", err)
		}
	}
	// bootFresh boots on a new data dir: empty, or a copy of the seeded one.
	nboot := 0
	bootFresh := func() (*proc, time.Duration, error) {
		nboot++
		data := filepath.Join(dir, fmt.Sprintf("data-%d", nboot))
		prepare := func() error { return os.MkdirAll(data, 0o755) }
		if seedData != "" {
			prepare = func() error { return copyDir(seedData, data) }
		}
		if err := prepare(); err != nil {
			return nil, 0, err
		}
		return boot(bin, w, data, dataset, filepath.Join(dir, fmt.Sprintf("llmms-%d.log", nboot)))
	}
	n := parts
	if traced {
		n = (parts + 1) / 2
	}
	// measurePart boots a fresh process and measures one part on it.
	measurePart := func(part int, traced bool) (*pass, error) {
		p, _, err := bootFresh()
		if err != nil {
			return nil, err
		}
		defer p.kill()
		q, err := measure(p, NewGenerator(w, seed, part), w, conns, dur/parts, traced)
		if err != nil {
			return nil, err
		}
		for i := range q.recs {
			q.recs[i].Part = part
		}
		return q, nil
	}

	var setup []float64
	for i := 0; i < setupBoots; i++ {
		p, took, err := bootFresh()
		if err != nil {
			return nil, err
		}
		p.kill()
		setup = append(setup, took.Seconds())
	}
	untraced := &pass{}
	for part := 0; part < n; part++ {
		q, err := measurePart(part, false)
		if err != nil {
			return nil, err
		}
		untraced.add(q)
	}
	var tr *pass
	if traced {
		tr = &pass{}
		for part := 0; part < n; part++ {
			q, err := measurePart(part, true)
			if err != nil {
				return nil, err
			}
			tr.add(q)
		}
	}
	return report(w, gen, setup, untraced, tr), nil
}

// seedBoot prepares repeat_write's data dir: one untimed boot uploads the
// seeded documents, then ends with SIGKILL, so every later boot replays
// the WAL.
func seedBoot(bin string, w Workload, gen *Generator, dir, data, dataset string) error {
	if err := os.MkdirAll(data, 0o755); err != nil {
		return err
	}
	p, _, err := boot(bin, w, data, dataset, filepath.Join(dir, "llmms-seed.log"))
	if err != nil {
		return err
	}
	defer p.kill()
	d := newDriver(p.base, gen, 1)
	for _, rec := range d.runOps(gen.SeedBoot(), 1) {
		if rec.Err != "" {
			return fmt.Errorf("seed request %s: %s", rec.Op.Kind, rec.Err)
		}
	}
	return nil
}

// measure warms the process up, then drives one part and scrapes
// /metrics around it.
func measure(p *proc, gen *Generator, w Workload, conns int, dur time.Duration, traced bool) (*pass, error) {
	d := newDriver(p.base, gen, conns)
	d.traced = traced
	out := &pass{warm: d.runOps(gen.Warmup(), conns)}
	for _, rec := range out.warm {
		if rec.Err != "" {
			return nil, fmt.Errorf("warm-up query: %s", rec.Err)
		}
	}
	if err := d.documents(); err != nil {
		return nil, err
	}
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, steal0 := cpuTime(), readSteal()
	start := time.Now()
	out.recs = d.runPass(conns, dur)
	out.wall = time.Since(start)
	printOutcomes(w, out)
	out.cpu = cpuTime() - cpu0
	out.steal = readSteal().sub(steal0)
	out.perSecond = make([]float64, int(dur/time.Second))
	for _, r := range out.recs {
		if s := int((r.Due + r.Latency) / time.Second); r.Err == "" && s < len(out.perSecond) {
			out.perSecond[s]++
		}
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	out.win = windows{{before, after}}
	rss, err := p.peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.rssMB = []float64{rss}
	if traced && !w.Repeat {
		out.probe = d.runOps(gen.RAGProbe(), 1)
		probeAfter, err := d.scrape()
		if err != nil {
			return nil, err
		}
		out.probeWin = windows{{before, probeAfter}}
	}
	return out, nil
}

// cpuTime is the benchmark process's own user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks are the machine's steal and total CPU ticks from /proc/stat.
type cpuTicks struct{ steal, total uint64 }

func (a cpuTicks) add(b cpuTicks) cpuTicks { return cpuTicks{a.steal + b.steal, a.total + b.total} }
func (a cpuTicks) sub(b cpuTicks) cpuTicks { return cpuTicks{a.steal - b.steal, a.total - b.total} }

// readSteal reads the aggregate CPU line of /proc/stat. On a virtual
// machine, steal is time the host ran something else while this machine
// had work; it slows the server and the driver alike, so it is reported
// beside the figures it distorts. Zero ticks where /proc/stat is absent.
func readSteal() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// appendRecord adds one run to a JSON-lines file for compare mode.
func appendRecord(path, workload string, seed int64, trace int, res *result) error {
	line, err := json.Marshal(runRecord{Workload: workload, Seed: seed, Trace: trace, Result: *res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
