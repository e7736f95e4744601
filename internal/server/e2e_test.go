package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sliceline/internal/core"
	"sliceline/internal/dist"
	"sliceline/internal/obs"
)

// startDistWorkers spawns n TCP evaluation workers on ephemeral localhost
// ports, as cmd/slworker would.
func startDistWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = lis.Addr().String()
		go dist.Serve(lis) //nolint:errcheck // lifetime bound to listener
		t.Cleanup(func() { lis.Close() })
	}
	return addrs
}

// compactResult normalizes a result document for byte comparison (the HTTP
// layer re-indents the cached JSON when embedding it in JobInfo).
func compactResult(t *testing.T, raw []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compacting result JSON: %v", err)
	}
	return buf.String()
}

// canonicalResult re-renders a result document with wall-clock fields zeroed,
// so two runs of the same enumeration compare byte-identically.
func canonicalResult(t *testing.T, raw []byte) string {
	t.Helper()
	var res core.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decoding result JSON: %v", err)
	}
	res.Elapsed = 0
	for i := range res.Levels {
		res.Levels[i].Elapsed, res.Levels[i].GenerateElapsed, res.Levels[i].EvalElapsed = 0, 0, 0
	}
	out, err := json.Marshal(&res)
	if err != nil {
		t.Fatalf("re-encoding result JSON: %v", err)
	}
	return string(out)
}

// countSpans returns how many finished spans carry the given name.
func countSpans(tr *obs.JSONTracer, name string) int {
	n := 0
	for _, sp := range tr.Spans() {
		if sp.Name == name {
			n++
		}
	}
	return n
}

// TestEndToEnd is the acceptance test of ISSUE 5: N concurrent jobs over
// HTTP against local and distributed evaluators, each byte-identical to a
// direct core run; repeated submissions served from the result cache with no
// new enumeration; SSE streams reporting every lattice level; and one span
// tree per job.
func TestEndToEnd(t *testing.T) {
	workers := startDistWorkers(t, 2)
	metrics := obs.NewRegistry()
	tracer := obs.NewJSONTracer()
	s, ts := newTestServer(t, Config{
		Pool:        3,
		QueueDepth:  32,
		DistWorkers: workers,
		Metrics:     metrics,
		Tracer:      tracer,
	})

	csv := testCSV(60)
	info, code := registerCSV(t, ts, csv, "err=err&name=e2e")
	if code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}

	// The same dataset, built directly, for reference runs.
	entry, err := buildDataset(strings.NewReader(csv), registerOptions{Err: "err", Name: "e2e"})
	if err != nil {
		t.Fatalf("direct buildDataset: %v", err)
	}
	if datasetID(entry.Sig) != info.ID {
		t.Fatalf("direct signature %s != registered %s", datasetID(entry.Sig), info.ID)
	}
	rows := entry.DS.NumRows()

	// Six job specs: four local, two distributed. Their result-affecting
	// configs are pairwise distinct (evaluator and BlockSize are outside
	// the cache key by design), so no submission is answered by another's
	// cache entry.
	specs := []JobSpec{
		{Dataset: info.ID, Evaluator: EvalLocal, Config: JobConfig{K: 4, Sigma: 3}},
		{Dataset: info.ID, Evaluator: EvalLocal, Config: JobConfig{K: 6, Sigma: 2, MaxLevel: 2}},
		{Dataset: info.ID, Evaluator: EvalLocal, Config: JobConfig{K: 3, Sigma: 4, Alpha: 0.9}},
		{Dataset: info.ID, Evaluator: EvalLocal, Config: JobConfig{K: 5, Sigma: 3, PriorityEnumeration: true}},
		{Dataset: info.ID, Evaluator: EvalDist, Config: JobConfig{K: 4, Sigma: 2, BlockSize: 8}},
		{Dataset: info.ID, Evaluator: EvalDist, Config: JobConfig{K: 5, Sigma: 2, MaxLevel: 2, BlockSize: 8}},
	}

	// Submit all jobs concurrently.
	ids := make([]string, len(specs))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec JobSpec) {
			defer wg.Done()
			js, _ := json.Marshal(spec)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(js))
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			defer resp.Body.Close()
			var ji JobInfo
			if resp.StatusCode != http.StatusAccepted {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("job %d: status %d", i, resp.StatusCode)
				}
				mu.Unlock()
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&ji); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			ids[i] = ji.ID
		}(i, spec)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	results := make([]JobInfo, len(specs))
	for i, id := range ids {
		results[i] = waitJob(t, ts, id, 30*time.Second)
		if results[i].Status != string(jobDone) {
			t.Fatalf("job %d (%s) finished %q: %s", i, id, results[i].Status, results[i].Error)
		}
	}

	// Reference runs AFTER all server jobs completed: distributed reference
	// clusters reuse the same workers, which hold partitions in one shared
	// map, so they must not overlap server-side distributed jobs.
	for i, spec := range specs {
		cfg := spec.Config.ToCore().WithDefaults(rows)
		if spec.Evaluator == EvalDist {
			cluster, err := dialCluster(workers, dist.Options{BlockSize: cfg.BlockSize})
			if err != nil {
				t.Fatalf("reference cluster: %v", err)
			}
			cfg.Evaluator = cluster
		}
		want, err := core.Run(context.Background(), core.Input{DS: entry.DS, E: entry.ErrVec}, cfg)
		if c, ok := cfg.Evaluator.(*dist.Cluster); ok {
			c.Close()
		}
		if err != nil {
			t.Fatalf("reference run %d: %v", i, err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got := canonicalResult(t, results[i].Result)
		if want := canonicalResult(t, wantJSON); got != want {
			t.Errorf("job %d (%s): result differs from direct run\n got: %.200s\nwant: %.200s",
				i, specs[i].Evaluator, got, want)
		}
	}

	// --- Result cache: resubmitting spec 0 must be a hit with no new run.
	hitsBefore := metrics.Counter("sl_server_cache_hits_total", "").Value()
	runsBefore := countSpans(tracer, "core.run")

	rejob, code, body := postJob(t, ts, specs[0])
	if code != http.StatusAccepted {
		t.Fatalf("cache resubmission: status %d (%s)", code, body)
	}
	if !rejob.Cached || rejob.Status != string(jobDone) {
		t.Errorf("resubmission: cached=%v status=%q, want cached done", rejob.Cached, rejob.Status)
	}
	if got := compactResult(t, rejob.Result); got != compactResult(t, results[0].Result) {
		t.Error("cached result differs from the original")
	}
	if hits := metrics.Counter("sl_server_cache_hits_total", "").Value(); hits != hitsBefore+1 {
		t.Errorf("sl_server_cache_hits_total = %d, want %d", hits, hitsBefore+1)
	}
	if runs := countSpans(tracer, "core.run"); runs != runsBefore {
		t.Errorf("cache hit started a new enumeration: %d core.run spans, want %d", runs, runsBefore)
	}
	// A local result satisfies an equivalent dist submission (plan fields
	// are outside the cache key).
	crossPlan := specs[0]
	crossPlan.Evaluator = EvalDist
	xj, code, _ := postJob(t, ts, crossPlan)
	if code != http.StatusAccepted || !xj.Cached {
		t.Errorf("cross-plan resubmission: status=%d cached=%v, want 202 cached", code, xj.Cached)
	}

	// --- SSE: the stream must report every lattice level plus a terminal
	// status, for a live or finished job alike.
	var res0 core.Result
	if err := json.Unmarshal(results[0].Result, &res0); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	levels, status := readSSE(t, ts, ids[0])
	if levels != len(res0.Levels) {
		t.Errorf("SSE delivered %d level events, result has %d levels", levels, len(res0.Levels))
	}
	if status != string(jobDone) {
		t.Errorf("SSE terminal status %q, want done", status)
	}

	// --- Tracing: every core.run span parents under a server.job span.
	jobSpanIDs := make(map[uint64]bool)
	for _, sp := range tracer.Spans() {
		if sp.Name == "server.job" {
			jobSpanIDs[sp.ID] = true
		}
	}
	if len(jobSpanIDs) != len(specs) {
		t.Errorf("%d server.job spans, want %d", len(jobSpanIDs), len(specs))
	}
	coreRuns := 0
	for _, sp := range tracer.Spans() {
		if sp.Name != "core.run" {
			continue
		}
		coreRuns++
		if !jobSpanIDs[sp.Parent] {
			t.Errorf("core.run span %d has parent %d, not a server.job span", sp.ID, sp.Parent)
		}
	}
	if coreRuns != len(specs) {
		t.Errorf("%d core.run spans, want %d (one per non-cached job)", coreRuns, len(specs))
	}

	// --- Metrics sanity on the full workload.
	if v := metrics.Counter("sl_server_jobs_done_total", "").Value(); v < int64(len(specs)) {
		t.Errorf("sl_server_jobs_done_total = %d, want >= %d", v, len(specs))
	}
	if v := s.ob.inflight.Value(); v != 0 {
		t.Errorf("inflight gauge = %v after drain, want 0", v)
	}
}

// readSSE consumes a job's event stream until the terminal status event,
// returning the number of level events and the terminal status.
func readSSE(t *testing.T, ts *httptest.Server, id string) (levels int, status string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q, want text/event-stream", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "level":
				var lv levelEvent
				if err := json.Unmarshal([]byte(data), &lv); err != nil {
					t.Fatalf("bad level event %q: %v", data, err)
				}
				if lv.Level != levels+1 {
					t.Errorf("level event %d reports level %d, want %d", levels, lv.Level, levels+1)
				}
				levels++
			case "status":
				var te terminalEvent
				if err := json.Unmarshal([]byte(data), &te); err != nil {
					t.Fatalf("bad status event %q: %v", data, err)
				}
				return levels, te.Status
			}
		}
	}
	t.Fatalf("event stream ended without a status event (read %d levels): %v", levels, sc.Err())
	return 0, ""
}
