package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"sliceline"
	"sliceline/internal/datagen"
	"sliceline/internal/fptol"
	"sliceline/internal/obs"
	"sliceline/internal/server"
)

// monitorWorkload streams appends into a resident monitor job of an
// in-process slserve over loopback HTTP, one client in a closed loop: the
// next append is sent only after the previous generation's result event
// has arrived.
type monitorWorkload struct{ full, tiny monitorSizes }

type monitorSizes struct{ baseRows, appends, batchRows int }

// adult-monitor: 16,000 base rows plus 100 appends of 160 rows fill the
// 32,561-row Adult shape; it is the only workload through server,
// frame.Appender and core.Incremental.
var adultMonitor = monitorWorkload{full: monitorSizes{16000, 100, 160}, tiny: monitorSizes{1600, 5, 80}}

// monitorInput is the rendered workload: the header, every row as CSV
// fields, and its error.
type monitorInput struct {
	header []string
	rows   [][]string
	errs   []float64
	// base and batches are the registration document and the append
	// documents, rendered once.
	base    string
	batches []string
	ds      *sliceline.Dataset // the same rows, integer-encoded
}

func (w monitorWorkload) sizes(o options) monitorSizes {
	if o.tiny {
		return w.tiny
	}
	return w.full
}

func (w monitorWorkload) prepare(o options) *monitorInput {
	sz := w.sizes(o)
	g := datagen.Adult(contentSeed)
	ds, e := permuteRows(g.DS, g.Err, o.seed)
	n := sz.baseRows + sz.appends*sz.batchRows
	in := &monitorInput{ds: ds, errs: e[:n]}
	for _, f := range ds.Features {
		in.header = append(in.header, f.Name)
	}
	in.header = append(in.header, "err")
	for i := 0; i < n; i++ {
		// Categorical labels, not numbers, so registration recodes instead
		// of binning them.
		row := make([]string, 0, len(in.header))
		for _, c := range ds.X0.Row(i) {
			row = append(row, "v"+strconv.Itoa(c))
		}
		in.rows = append(in.rows, append(row, strconv.FormatFloat(e[i], 'g', -1, 64)))
	}
	in.base = in.render(0, sz.baseRows)
	for lo := sz.baseRows; lo < n; lo += sz.batchRows {
		in.batches = append(in.batches, in.render(lo, lo+sz.batchRows))
	}
	return in
}

func (in *monitorInput) render(lo, hi int) string {
	var b strings.Builder
	b.WriteString(strings.Join(in.header, ",") + "\n")
	for _, r := range in.rows[lo:hi] {
		b.WriteString(strings.Join(r, ",") + "\n")
	}
	return b.String()
}

// service is one in-process slserve on a loopback listener.
type service struct {
	srv  *server.Server
	http *http.Server
	url  string
	reg  *obs.Registry
	done chan struct{}
}

func startService(tracer sliceline.Tracer) (*service, error) {
	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{Tracer: tracer, Metrics: reg})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("service listen: %w", err)
	}
	s := &service{srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + l.Addr().String(), reg: reg, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(l) // ErrServerClosed once stop runs
	}()
	return s, nil
}

// stop cancels the monitor jobs (ending their event streams), then closes
// the HTTP server and waits for it.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
	_ = s.http.Shutdown(ctx)
	<-s.done
}

// roundStats is what one round against a fresh service observed.
type roundStats struct {
	register, firstResult time.Duration
	refresh, ack          []float64 // ms, one per append
	results               []resultEvent
}

type resultEvent struct {
	Generation int             `json:"generation"`
	Result     json.RawMessage `json:"result"`
}

type resultDoc struct {
	TopK   []json.RawMessage      `json:"top_k"`
	Levels []sliceline.LevelStats `json:"levels"`
}

func (w monitorWorkload) run(ctx context.Context, o options) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	var (
		in  *monitorInput
		svc *service
	)
	setup, err := repeatSetup(func() (err error) {
		in = w.prepare(o)
		svc, err = startService(nil)
		return err
	}, func() { svc.stop() })
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = setup

	var refresh, ack, register, first []float64
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < o.seconds; round++ {
		rin := in
		if round > 0 {
			// Each round splits the rows into base and appends by its own
			// permutation, so the medians pool over several splits.
			ro := o
			ro.seed = o.seed*1000 + int64(round)
			rin = w.prepare(ro)
			if svc, err = startService(nil); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		s, err := w.round(ctx, o, rep, rin, svc, nil)
		svc.stop()
		if err != nil {
			return nil, err
		}
		refresh, ack = append(refresh, s.refresh...), append(ack, s.ack...)
		register, first = append(register, s.register.Seconds()), append(first, s.firstResult.Seconds())
	}
	m := rep.metrics
	m["run_s"] = median(refresh) / 1e3
	if !o.trace {
		return rep, nil
	}
	m["refresh_p50_ms"] = median(refresh)
	m["refresh_p90_ms"] = quantile(refresh, 0.9)
	m["append_p50_ms"] = median(ack)
	m["server.register_s"] = median(register)
	m["server.first_result_s"] = median(first)

	if err := timeEncode(in.ds, m); err != nil {
		return nil, err
	}

	tracer := sliceline.NewJSONTracer()
	if svc, err = startService(tracer); err != nil {
		return nil, err
	}
	runtime.GC()
	alloc := startAllocMeter()
	var spans []*sliceline.Span
	s, err := w.round(ctx, o, rep, in, svc, func() { spans = tracer.Spans() })
	alloc.metrics(m)
	svc.stop()
	if err != nil {
		return nil, err
	}
	cs, err := splitCore(spans)
	if err != nil {
		return nil, err
	}
	cs.metrics(m)
	var levels []sliceline.LevelStats
	for _, ev := range s.results {
		var doc resultDoc
		if err := json.Unmarshal(ev.Result, &doc); err != nil {
			return nil, fmt.Errorf("decoding result: %w", err)
		}
		levels = append(levels, doc.Levels...)
	}
	levelCounts(levels, m)
	tracedP50 := median(s.refresh)
	m["server.refresh.core_run_ms"] = median(cs.runDurs) * 1e3
	m["server.refresh.core_eval_ms"] = median(cs.evalDurs) * 1e3
	m["server.refresh.overhead_ms"] = tracedP50 - m["server.refresh.core_run_ms"]
	m["server.refreshes"] = float64(svc.reg.Counter("sl_server_monitor_refreshes_total", "").Value())
	m["trace.overhead_ratio"] = tracedP50 / median(refresh)
	return rep, nil
}

// round registers the base, starts a monitor, makes every append and checks
// the outcome. afterRefreshes, when non-nil, runs once the last refresh has
// arrived, before the check's batch job adds its own spans.
func (w monitorWorkload) round(ctx context.Context, o options, rep *report, in *monitorInput, svc *service, afterRefreshes func()) (*roundStats, error) {
	c := &client{url: svc.url}
	defer c.http.CloseIdleConnections()
	s := &roundStats{}

	t0 := time.Now()
	var ds server.DatasetInfo
	body, _ := json.Marshal(map[string]string{"name": "adult-monitor", "err": "err", "csv": in.base})
	if err := c.post(ctx, "/v1/datasets", "application/json", string(body), http.StatusCreated, &ds); err != nil {
		return nil, err
	}
	s.register = time.Since(t0)

	t0 = time.Now()
	var job server.JobInfo
	spec := fmt.Sprintf(`{"spec_version":2,"dataset":%q,"mode":"monitor","config":{}}`, ds.ID)
	if err := c.post(ctx, "/v1/jobs", "application/json", spec, http.StatusAccepted, &job); err != nil {
		return nil, err
	}
	events, stop, err := c.results(ctx, job.ID)
	if err != nil {
		return nil, err
	}
	defer stop()
	next := func(gen int) (resultEvent, bool) {
		rep.attempted++
		select {
		case ev, ok := <-events:
			if !ok {
				rep.fail(o, "event stream ended before generation %d", gen)
				return ev, false
			}
			if ev.Generation != gen {
				rep.fail(o, "result for generation %d, want %d", ev.Generation, gen)
				return ev, false
			}
			s.results = append(s.results, ev)
			return ev, true
		case <-time.After(60 * time.Second):
			rep.fail(o, "no result for generation %d within 60s", gen)
			return resultEvent{}, false
		}
	}
	if _, ok := next(0); !ok {
		return s, nil
	}
	s.firstResult = time.Since(t0)

	for i, batch := range in.batches {
		t0 := time.Now()
		var ai server.AppendInfo
		if err := c.post(ctx, "/v1/datasets/"+ds.ID+"/rows", "text/csv", batch, http.StatusOK, &ai); err != nil {
			return nil, err
		}
		s.ack = append(s.ack, float64(time.Since(t0))/1e6)
		if _, ok := next(i + 1); !ok {
			return s, nil
		}
		s.refresh = append(s.refresh, float64(time.Since(t0))/1e6)
	}
	if afterRefreshes != nil {
		afterRefreshes()
	}
	w.check(ctx, o, rep, in, c, ds.ID, s, svc)
	return s, nil
}

// check verifies a finished round: one refresh per generation, the final
// top-K bit-identical to a batch job over the final generation (the
// incremental evaluator's contract), and every final slice's size and total
// error recounted from the rendered rows.
func (w monitorWorkload) check(ctx context.Context, o options, rep *report, in *monitorInput, c *client, id string, s *roundStats, svc *service) {
	rep.attempted++
	if got, want := svc.reg.Counter("sl_server_monitor_refreshes_total", "").Value(), int64(len(in.batches)+1); got != want {
		rep.fail(o, "%d monitor refreshes, want %d", got, want)
		return
	}
	var job server.JobInfo
	if err := c.post(ctx, "/v1/jobs", "application/json", fmt.Sprintf(`{"dataset":%q,"config":{"bitset":"on"}}`, id), 0, &job); err != nil {
		rep.fail(o, "batch job: %v", err)
		return
	}
	for job.Status != "done" {
		if job.Status == "failed" || job.Status == "cancelled" {
			rep.fail(o, "batch job %s: %s %s", job.ID, job.Status, job.Error)
			return
		}
		time.Sleep(5 * time.Millisecond)
		if err := c.get(ctx, "/v1/jobs/"+job.ID, &job); err != nil {
			rep.fail(o, "batch job: %v", err)
			return
		}
	}
	var mon, batch resultDoc
	if err := json.Unmarshal(s.results[len(s.results)-1].Result, &mon); err != nil {
		rep.fail(o, "decoding monitor result: %v", err)
		return
	}
	if err := json.Unmarshal(job.Result, &batch); err != nil {
		rep.fail(o, "decoding batch result: %v", err)
		return
	}
	if len(mon.TopK) == 0 || len(mon.TopK) != len(batch.TopK) {
		rep.fail(o, "monitor top-K has %d slices, batch %d", len(mon.TopK), len(batch.TopK))
		return
	}
	col := make(map[string]int)
	for j, h := range in.header {
		col[h] = j
	}
	for i := range mon.TopK {
		if !bytes.Equal(compact(mon.TopK[i]), compact(batch.TopK[i])) {
			rep.fail(o, "monitor slice %d differs from the batch job:\n%s\n%s", i, mon.TopK[i], batch.TopK[i])
			return
		}
		var sl sliceline.Slice
		if err := json.Unmarshal(mon.TopK[i], &sl); err != nil {
			rep.fail(o, "decoding slice: %v", err)
			return
		}
		size, total := 0, 0.0
		for r, row := range in.rows {
			match := true
			for _, p := range sl.Predicates {
				if row[col[p.Name]] != p.Label {
					match = false
					break
				}
			}
			if match {
				size++
				total += in.errs[r]
			}
		}
		if size != sl.Size || !fptol.DefaultTol.Close(total, sl.TotalError) {
			rep.fail(o, "slice %d %v: recount size %d error %v", i, sl, size, total)
			return
		}
	}
}

// compact strips insignificant whitespace: the job endpoint indents its
// result document, the event stream does not.
func compact(raw []byte) []byte {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return raw
	}
	return b.Bytes()
}

// client is a minimal JSON client of the slserve API.
type client struct {
	url  string
	http http.Client
}

// post sends body and decodes the JSON reply into out; want != 0 also
// requires that status.
func (c *client) post(ctx context.Context, path, ctype, body string, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+path, strings.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", ctype)
	return c.do(req, want, out)
}

func (c *client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, http.StatusOK, out)
}

func (c *client) do(req *http.Request, want int, out any) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
	}
	if (want != 0 && resp.StatusCode != want) || resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, out)
}

// results follows a job's event stream and forwards its result events until
// the stream ends or stop is called; stop returns once the reader has exited.
func (c *client) results(ctx context.Context, job string) (<-chan resultEvent, func(), error) {
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/v1/jobs/"+job+"/events", nil)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, nil, fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	out := make(chan resultEvent)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(out)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: ") && event == "result":
				var ev resultEvent
				if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev) != nil {
					return
				}
				select {
				case out <- ev:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	return out, func() {
		cancel()
		wg.Wait()
	}, nil
}
