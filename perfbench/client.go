package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// record is what the driver saw of one request. Offsets are from the
// start of the pass.
type record struct {
	Op   Op
	Part int // the part whose process answered it
	// Due is when the request was due: the moment its connection came
	// free. Sent - Due is the driver's own send lag.
	Due, Sent time.Duration
	// TTFC and Latency run from Due to the first chunk frame and to the
	// result frame (or the reply, for non-query requests).
	TTFC, Latency time.Duration
	Cache         string // X-Cache
	Route         string // X-Route: the routing outcome and width, on MISSes
	QueryID       string
	SessionID     string
	HaveResult    bool
	Result        resultBody
	Winner        string
	Prunes        int
	ScoreNs       int64
	StallNs       int64
	Err           string // failure reason, empty when the request succeeded
	Spans         []spanJSON
}

type resultBody struct {
	Answer     string `json:"answer"`
	Model      string `json:"model"`
	TokensUsed int    `json:"tokens_used"`
	Rounds     int    `json:"rounds"`
	EarlyExit  bool   `json:"early_exit"`
}

type eventBody struct {
	Text    string `json:"text"`
	Elapsed int64  `json:"elapsed_ns"`
}

// spanJSON is one span of /api/traces/{id}.
type spanJSON struct {
	SpanID   string    `json:"span_id"`
	ParentID string    `json:"parent_id"`
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	Duration int64     `json:"duration_ns"`
}

// driver sends one pass of a workload's requests to one llmms process.
type driver struct {
	base   string
	client *http.Client
	gen    *Generator
	traced bool // fetch the span tree of every orchestrated query
	t0     time.Time

	mu          sync.Mutex
	liveDocs    []string // uploaded document ids, oldest first
	lastSession string   // session of the latest answered query
}

func newDriver(base string, gen *Generator, conns int) *driver {
	tr := &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, MaxIdleConns: conns,
		DisableCompression: true, IdleConnTimeout: time.Minute,
	}
	return &driver{base: base, gen: gen, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (d *driver) since() time.Duration { return time.Since(d.t0) }

// runPass drives the workload in a closed loop for dur over conns
// connections: each sends its next request as soon as the previous one
// completes. It returns one record per request sent.
func (d *driver) runPass(conns int, dur time.Duration) []record {
	d.t0 = time.Now()
	var (
		wg   sync.WaitGroup
		genM sync.Mutex
		outM sync.Mutex
		out  []record
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				rec := record{Due: d.since()}
				if rec.Due >= dur {
					return
				}
				genM.Lock()
				rec.Op = d.gen.Next()
				genM.Unlock()
				d.do(&rec)
				outM.Lock()
				out = append(out, rec)
				outM.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// do sends one request and fills rec.
func (d *driver) do(rec *record) {
	switch rec.Op.Kind {
	case opQuery:
		d.query(rec)
	case opUpload:
		doc := d.gen.Docs[rec.Op.Doc]
		var out struct {
			DocID string `json:"doc_id"`
		}
		if d.call(rec, "POST", "/api/upload", map[string]string{"filename": doc.Name, "content": doc.Content}, http.StatusCreated, &out) {
			d.mu.Lock()
			d.liveDocs = append(d.liveDocs, out.DocID)
			d.mu.Unlock()
		}
	case opDelete:
		d.mu.Lock()
		id := ""
		if len(d.liveDocs) > 0 {
			id, d.liveDocs = d.liveDocs[0], d.liveDocs[1:]
		}
		d.mu.Unlock()
		if id == "" {
			rec.Sent = d.since()
			rec.Err = "delete: no live document"
			return
		}
		d.call(rec, "DELETE", "/api/documents/"+id, nil, http.StatusOK, nil)
	case opFeedback:
		d.mu.Lock()
		sess := d.lastSession
		d.mu.Unlock()
		if sess == "" {
			rec.Sent = d.since()
			rec.Err = "feedback: no answered session yet"
			return
		}
		d.call(rec, "POST", "/api/feedback", map[string]any{"session_id": sess, "rating": rec.Op.Rating}, http.StatusOK, nil)
	}
}

// call sends a JSON request and decodes a JSON reply.
func (d *driver) call(rec *record, method, path string, body any, want int, out any) bool {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			rec.Err = err.Error()
			return false
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		rec.Err = err.Error()
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	rec.Sent = d.since()
	resp, err := d.client.Do(req)
	if err != nil {
		rec.Err = err.Error()
		return false
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	rec.Latency = d.since() - rec.Due
	if err != nil {
		rec.Err = err.Error()
		return false
	}
	if resp.StatusCode != want {
		rec.Err = fmt.Sprintf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
		return false
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			rec.Err = fmt.Sprintf("%s %s: %v", method, path, err)
			return false
		}
	}
	return true
}

// query sends one /api/query and parses its SSE stream.
func (d *driver) query(rec *record) {
	op := rec.Op
	body := map[string]any{"query": op.Query, "strategy": op.Strategy, "max_tokens": op.MaxToks}
	if op.Model != "" {
		body["model"] = op.Model
	}
	if op.UseRAG {
		body["use_rag"] = true
	}
	raw, err := json.Marshal(body)
	if err != nil {
		rec.Err = err.Error()
		return
	}
	req, err := http.NewRequest("POST", d.base+"/api/query", bytes.NewReader(raw))
	if err != nil {
		rec.Err = err.Error()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	rec.Sent = d.since()
	resp, err := d.client.Do(req)
	if err != nil {
		rec.Err = err.Error()
		return
	}
	defer resp.Body.Close()
	rec.Cache = resp.Header.Get("X-Cache")
	rec.Route = resp.Header.Get("X-Route")
	rec.QueryID = resp.Header.Get("X-Query-ID")
	rec.SessionID = resp.Header.Get("X-Session-ID")
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // diagnostics only
		rec.Latency = d.since() - rec.Due
		rec.Err = fmt.Sprintf("query: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return
	}
	if err := d.readStream(rec, bufio.NewReaderSize(resp.Body, 32<<10)); err != nil {
		rec.Err = "query: " + err.Error()
		return
	}
	if !rec.HaveResult {
		if rec.Err == "" {
			rec.Err = "query: stream ended without a result frame"
		}
		return
	}
	d.mu.Lock()
	d.lastSession = rec.SessionID
	d.mu.Unlock()
	if d.traced && rec.Cache == "MISS" && rec.QueryID != "" {
		d.fetchTrace(rec)
	}
}

// readStream consumes SSE frames until the stream ends.
func (d *driver) readStream(rec *record, br *bufio.Reader) error {
	var event string
	var data []byte
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF && len(line) == 0 {
			return nil
		}
		if err != nil && err != io.EOF {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if event != "" {
				if err := d.frame(rec, event, data); err != nil {
					return err
				}
			}
			event, data = "", nil
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data = line[len("data: "):]
		}
	}
}

func (d *driver) frame(rec *record, event string, data []byte) error {
	switch event {
	case "chunk":
		if rec.TTFC == 0 {
			rec.TTFC = d.since() - rec.Due
		}
	case "prune":
		rec.Prunes++
	case "score_pass", "round_stall", "winner":
		var ev eventBody
		if err := json.Unmarshal(data, &ev); err != nil {
			return fmt.Errorf("%s frame: %w", event, err)
		}
		switch event {
		case "score_pass":
			rec.ScoreNs += ev.Elapsed
		case "round_stall":
			rec.StallNs += ev.Elapsed
		default:
			rec.Winner = ev.Text
		}
	case "result":
		rec.Latency = d.since() - rec.Due
		if rec.TTFC == 0 {
			rec.TTFC = rec.Latency
		}
		var res struct {
			Result resultBody `json:"result"`
		}
		if err := json.Unmarshal(data, &res); err != nil {
			return fmt.Errorf("result frame: %w", err)
		}
		rec.Result, rec.HaveResult = res.Result, true
	case "error":
		rec.Err = "error frame: " + strings.TrimSpace(string(data))
	}
	return nil
}

// fetchTrace reads the query's span tree from /api/traces/{id}.
func (d *driver) fetchTrace(rec *record) {
	resp, err := d.client.Get(d.base + "/api/traces/" + rec.QueryID)
	if err != nil {
		rec.Err = "trace: " + err.Error()
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rec.Err = fmt.Sprintf("trace: status %d", resp.StatusCode)
		return
	}
	var tr struct {
		Spans []spanJSON `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		rec.Err = "trace: " + err.Error()
		return
	}
	rec.Spans = tr.Spans
}

// documents lists the server's live document ids (repeat_write starts on
// the seeded set).
func (d *driver) documents() error {
	resp, err := d.client.Get(d.base + "/api/documents")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var docs []struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&docs); err != nil {
		return fmt.Errorf("list documents: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.liveDocs = d.liveDocs[:0]
	for _, doc := range docs {
		d.liveDocs = append(d.liveDocs, doc.ID)
	}
	return nil
}

// runOps sends a fixed list of requests over conns connections, each
// connection taking the next unsent request; with one connection they go
// in order.
func (d *driver) runOps(ops []Op, conns int) []record {
	d.t0 = time.Now()
	out := make([]record, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(ops); i = int(next.Add(1)) - 1 {
				out[i].Op = ops[i]
				out[i].Due = d.since()
				d.do(&out[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// scrape reads /metrics.
func (d *driver) scrape() (prom, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read /metrics: %w", err)
	}
	return parseProm(string(raw)), nil
}
