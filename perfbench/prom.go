package main

import (
	"strconv"
	"strings"
)

// prom is one /metrics scrape: series ("name" or "name{labels}") to value.
type prom map[string]float64

// parseProm reads the Prometheus text exposition format.
func parseProm(text string) prom {
	out := prom{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds every series of the metric name whose labels contain each of
// the given label pairs (as `key="value"`).
func (p prom) sum(name string, labels ...string) float64 {
	total := 0.0
	for series, v := range p {
		base, lbl, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// window is /metrics before and after one measured pass.
type window struct{ before, after prom }

// windows are the measured passes of one run, each on its own process.
type windows []window

// delta is the summed change of a metric over the windows.
func (ws windows) delta(name string, labels ...string) float64 {
	total := 0.0
	for _, w := range ws {
		total += w.after.sum(name, labels...) - w.before.sum(name, labels...)
	}
	return total
}

// histMean is the mean of the observations a histogram gained over the
// windows, or 0 when it gained none.
func (ws windows) histMean(name string, labels ...string) float64 {
	return ratio(ws.delta(name+"_sum", labels...), ws.delta(name+"_count", labels...))
}

// gauge is the mean of a gauge's values at the end of the windows.
func (ws windows) gauge(name string) float64 {
	total := 0.0
	for _, w := range ws {
		total += w.after.sum(name)
	}
	return ratio(total, float64(len(ws)))
}
