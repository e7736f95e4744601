package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"sliceline/internal/core"
	"sliceline/internal/dist"
	"sliceline/internal/obs"
)

// jobState is a job's lifecycle position. Transitions are strictly
// queued → running → {done, failed, cancelled}, except that a queued job
// can jump straight to cancelled (DELETE before a worker picked it up) and
// a cache hit is born done.
type jobState string

// Job lifecycle states as reported in JobInfo.Status.
const (
	jobQueued    jobState = "queued"
	jobRunning   jobState = "running"
	jobDone      jobState = "done"
	jobFailed    jobState = "failed"
	jobCancelled jobState = "cancelled"
)

func (s jobState) terminal() bool {
	return s == jobDone || s == jobFailed || s == jobCancelled
}

// errMonitorLimit rejects a monitor submission once the resident cap is
// reached (HTTP 429 with code monitor_limit).
var errMonitorLimit = errors.New("server: monitor limit reached")

// job is one slice-finding request moving through the pool — or, in monitor
// mode, resident beside it.
type job struct {
	id   string
	spec JobSpec
	// ds is the live registry entry; only monitors touch it after
	// submission (to wait for appends). Batch execution reads snap.
	ds *datasetEntry
	// snap is the dataset generation captured at submission: batch jobs
	// evaluate exactly this generation no matter what is appended
	// meanwhile, and the cache key and journal record pin its signature.
	snap dsSnapshot
	// baseSnap is the baseline dataset's snapshot for diff jobs: its error
	// vector supplies the baseline model's per-row errors.
	baseSnap dsSnapshot
	cfg      core.Config // resolved via WithDefaults; hooks unset
	key      cacheKey
	useDist  bool
	monitor  bool
	resume   bool // restored from the journal: resume from the checkpoint

	// ctx is created at submission so DELETE can cancel a job that is
	// still queued; the worker hands it to the enumeration.
	ctx    context.Context
	cancel context.CancelFunc

	enqueued time.Time

	mu         sync.Mutex
	state      jobState
	cached     bool
	result     *core.Result
	resultJSON []byte
	errMsg     string
	gen        int // dataset generation resultJSON covers (monitor refreshes)

	events *eventLog
	done   chan struct{} // closed on terminal state
}

func (j *job) info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:      j.id,
		Dataset: j.spec.Dataset,
		Status:  string(j.state),
		Mode:    j.spec.Mode,
		Cached:  j.cached,
		Error:   j.errMsg,
	}
	if j.useDist {
		info.Evaluator = EvalDist
	} else {
		info.Evaluator = EvalLocal
	}
	// A monitor carries its latest refreshed result while still running.
	if j.state == jobDone || (j.monitor && j.resultJSON != nil) {
		info.Result = json.RawMessage(j.resultJSON)
		info.Generation = j.gen
	}
	return info
}

// setRefreshed records a monitor's latest maintained result (non-terminal).
func (j *job) setRefreshed(res *core.Result, js []byte, gen int) {
	j.mu.Lock()
	j.result = res
	j.resultJSON = js
	j.gen = gen
	j.mu.Unlock()
}

func (j *job) currentState() jobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// localOnly reports whether a spec's workload is pinned to in-process
// evaluation: monitors (incremental maintenance), windowed runs (row
// weights), and diff runs (weighted lowering over two error vectors).
// validate rejects an explicit "dist" for all three; auto must not pick it
// either.
func localOnly(spec JobSpec) bool {
	return spec.Mode == ModeMonitor || spec.Mode == ModeDiff || spec.Window != nil
}

// jobCacheKey builds a spec's result-cache identity from its resolved
// configuration and dataset signatures. The significance level is resolved
// to the default here so an explicit 0.05 and an absent field key
// identically — they produce identical results.
func jobCacheKey(spec JobSpec, cfg core.Config, dataSig, baseSig uint64) cacheKey {
	sig := cfg.Significance
	if sig == 0 {
		sig = core.DefaultSignificance
	}
	return cacheKey{
		dataSig:  dataSig,
		cfgSig:   core.ConfigSignature(cfg),
		maxLevel: cfg.MaxLevel,
		mode:     spec.Mode,
		baseSig:  baseSig,
		sigLevel: sig,
	}
}

// submit validates a spec against the registry, resolves its configuration,
// consults the result cache, and either completes the job instantly (cache
// hit), enqueues it, or rejects it. The returned HTTP status is 202 on
// acceptance, 404/400/429/503 on the corresponding failures.
func (s *Server) submit(spec JobSpec) (*job, int, error) {
	ds, ok := s.reg.get(spec.Dataset)
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("server: unknown dataset %q", spec.Dataset)
	}
	// Jobs evaluate a point-in-time snapshot: appends arriving after this
	// line do not change what this job computes.
	snap := ds.snapshot()

	useDist := spec.Evaluator == EvalDist ||
		(spec.Evaluator == EvalAuto && !localOnly(spec) && s.distCapable())
	if useDist && !s.distCapable() {
		return nil, http.StatusBadRequest, fmt.Errorf("server: job requests distributed evaluation but the server has no workers or membership configured")
	}

	if spec.Mode == ModeMonitor {
		return s.submitMonitor(spec, ds, snap)
	}

	// Diff jobs reference a second dataset for the baseline error vector; it
	// must exist and cover the same rows as the job's dataset.
	var baseSnap dsSnapshot
	if spec.Mode == ModeDiff {
		base, ok := s.reg.get(spec.Baseline)
		if !ok {
			return nil, http.StatusNotFound, fmt.Errorf("server: unknown baseline dataset %q", spec.Baseline)
		}
		baseSnap = base.snapshot()
		if got, want := len(baseSnap.ErrVec), snap.DS.NumRows(); got != want {
			return nil, http.StatusBadRequest, fmt.Errorf("server: baseline dataset %q has %d rows, job dataset %q has %d; diff requires the same rows", spec.Baseline, got, spec.Dataset, want)
		}
	}

	cfg := spec.Config.ToCore().WithDefaults(snap.DS.NumRows())
	if spec.Mode == ModeAnytime {
		cfg.Budget = time.Duration(spec.BudgetMS) * time.Millisecond
	}
	if err := cfg.Validate(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	j := &job{
		spec:     spec,
		ds:       ds,
		snap:     snap,
		baseSnap: baseSnap,
		cfg:      cfg,
		key:      jobCacheKey(spec, cfg, snap.Sig, baseSnap.Sig),
		useDist:  useDist,
		state:    jobQueued,
		events:   newEventLog(),
		done:     make(chan struct{}),
	}

	// Result cache: an identical completed run answers without touching
	// the pool (and without emitting any new core.run span). Windowed jobs
	// skip the cache entirely — their answer depends on wall-clock time,
	// not just (data, config) — and so do anytime jobs, whose stopping
	// point depends on how fast this machine happened to enumerate.
	if spec.Window == nil && spec.Mode != ModeAnytime {
		if hit, ok := s.cache.get(j.key); ok {
			j.id = s.newJobID()
			j.cached = true
			j.state = jobDone
			j.result = hit.res
			j.resultJSON = hit.json
			j.gen = snap.Gen
			j.events.replay(hit.res.Levels)
			j.events.finish(string(jobDone), "")
			close(j.done)
			s.addJob(j)
			s.ob.submitted.Inc()
			s.ob.cacheHits.Inc()
			s.ob.done.Inc()
			// Serving beats journaling; the next save retries the file.
			s.journalFailed("cache hit", s.journal.saveJob(j))
			return j, http.StatusAccepted, nil
		}
		s.ob.cacheMiss.Inc()
	}

	timeout := s.cfg.JobTimeout
	if spec.TimeoutMS > 0 {
		timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		j.ctx, j.cancel = context.WithTimeout(context.Background(), timeout)
	} else {
		j.ctx, j.cancel = context.WithCancel(context.Background())
	}

	// Admission control. The queue send and the closed check share s.mu
	// with Shutdown's close(s.queue), so a submission can never race a
	// drain into a send-on-closed-channel panic.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		j.cancel()
		return nil, http.StatusServiceUnavailable, fmt.Errorf("server: draining, not accepting jobs")
	}
	j.id = s.newJobID()
	j.enqueued = time.Now()
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		j.cancel()
		s.ob.rejected.Inc()
		return nil, http.StatusTooManyRequests, fmt.Errorf("server: job queue full (%d waiting); retry later", cap(s.queue))
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()

	s.ob.submitted.Inc()
	s.ob.queueDepth.Add(1)
	// The job is already queued; journaling is best-effort per write (the
	// terminal save will retry the file).
	s.journalFailed("enqueue", s.journal.saveJob(j))
	return j, http.StatusAccepted, nil
}

func (s *Server) newJobID() string {
	return fmt.Sprintf("job-%d", s.nextID.Add(1))
}

// addJob registers a job in the table without touching the queue (cache
// hits, restored terminal jobs).
func (s *Server) addJob(j *job) {
	s.mu.Lock()
	if j.id == "" {
		j.id = s.newJobID()
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
}

func (s *Server) getJob(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) listJobs() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// cancelJob implements DELETE /v1/jobs/{id}: it cancels the job's context
// and, for still-queued jobs, finalizes immediately (the worker skips
// cancelled jobs at dequeue, so the slot is never consumed). Cancelling a
// terminal job is a no-op that reports the existing state.
func (s *Server) cancelJob(j *job) jobState {
	j.mu.Lock()
	st := j.state
	if st.terminal() {
		j.mu.Unlock()
		return st
	}
	if st == jobQueued {
		j.state = jobCancelled
		j.errMsg = "cancelled while queued"
		jerr := s.journal.saveJobLocked(j)
		j.mu.Unlock()
		if j.cancel != nil {
			j.cancel()
		}
		j.events.finish(string(jobCancelled), "cancelled while queued")
		close(j.done)
		s.ob.cancelled.Inc()
		s.ob.queueDepth.Add(-1)
		s.journalFailed("cancel", jerr)
		return jobCancelled
	}
	// Running: cancel the context; the worker observes the enumeration
	// abort and finalizes.
	j.mu.Unlock()
	if j.cancel != nil {
		j.cancel()
	}
	return jobRunning
}

// worker is one pool goroutine: it drains the queue until Shutdown closes
// it, skipping jobs that were cancelled while queued.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		j.mu.Lock()
		if j.state != jobQueued {
			// Cancelled while waiting; its terminal state is already set.
			j.mu.Unlock()
			continue
		}
		j.state = jobRunning
		j.mu.Unlock()
		s.ob.queueDepth.Add(-1)
		s.ob.queueSecs.Observe(time.Since(j.enqueued).Seconds())
		s.runOne(j)
	}
}

// runOne executes one job and finalizes it.
func (s *Server) runOne(j *job) {
	s.ob.inflight.Add(1)
	start := time.Now()
	res, err := s.runJob(j.ctx, j)
	s.ob.inflight.Add(-1)
	s.ob.jobSecs.Observe(time.Since(start).Seconds())
	j.cancel()
	s.finishJob(j, res, err)
}

// finishJob records a job's terminal state, feeds the result cache, and
// journals the outcome.
func (s *Server) finishJob(j *job, res *core.Result, err error) {
	var (
		st  jobState
		msg string
	)
	switch {
	case err == nil:
		st = jobDone
	case errors.Is(err, context.Canceled):
		st, msg = jobCancelled, "cancelled"
		s.ob.cancelled.Inc()
	case errors.Is(err, context.DeadlineExceeded):
		st, msg = jobFailed, "deadline exceeded: "+err.Error()
		s.ob.failed.Inc()
	default:
		st, msg = jobFailed, err.Error()
		s.ob.failed.Inc()
	}

	var js []byte
	if st == jobDone {
		var merr error
		js, merr = json.Marshal(res)
		if merr != nil {
			st, msg = jobFailed, "encoding result: "+merr.Error()
			s.ob.failed.Inc()
		}
	}

	j.mu.Lock()
	j.state = st
	j.errMsg = msg
	if st == jobDone {
		j.result = res
		j.resultJSON = js
		j.gen = j.snap.Gen
	}
	// Journal the terminal state before any reader can observe it: a
	// client that saw the job finish must find it finished after a restart.
	jerr := s.journal.saveJobLocked(j)
	j.mu.Unlock()

	if st == jobDone {
		// Windowed results are a function of wall-clock time, monitor
		// results of a moving generation, anytime results of this
		// machine's enumeration speed; none may answer a later
		// submission from the cache.
		if j.spec.Window == nil && !j.monitor && j.spec.Mode != ModeAnytime {
			s.cache.put(j.key, res, js)
		}
		s.ob.done.Inc()
		s.journal.dropCheckpoint(j.id)
	}
	j.events.finish(string(st), msg)
	close(j.done)
	s.journalFailed("finish", jerr)
}

// journalErrorLogWindow spaces journal-failure log lines: a dead disk fails
// every write, and one line per window tells the story as well as thousands.
const journalErrorLogWindow = 10 * time.Second

// journalFailed records a failed journal write: every failure increments
// sl_server_journal_errors_total, and at most one log line per window names
// the failing site. A nil error is a no-op, so call sites stay one line.
func (s *Server) journalFailed(site string, err error) {
	if err == nil {
		return
	}
	s.ob.journalErrs.Inc()
	now := time.Now().UnixNano()
	last := s.journalLogAt.Load()
	if now-last >= int64(journalErrorLogWindow) && s.journalLogAt.CompareAndSwap(last, now) {
		log.Printf("server: journal write failed (%s): %v", site, err)
	}
}

// runJobReal is the production job runner (Server.runJob): it wires the
// job's event log, checkpoint path, observability and evaluator into the
// core enumeration. Distributed jobs serialize on distMu because TCP
// workers key partitions by id in one shared map — two concurrent clusters
// would overwrite each other's shipped partitions.
func (s *Server) runJobReal(ctx context.Context, j *job) (*core.Result, error) {
	cfg := j.cfg
	cfg.Tracer = s.cfg.Tracer
	cfg.Metrics = s.cfg.Metrics
	cfg.OnLevel = j.events.addLevel
	if s.journal != nil {
		cfg.CheckpointPath = s.journal.checkpointPath(j.id)
		cfg.Resume = j.resume
	}
	// A diff job runs two enumerations (regressions, improvements); sharing
	// one checkpoint file between them would corrupt resume, so diff jobs
	// run checkpoint-free and restart from scratch after a crash.
	if j.spec.Mode == ModeDiff {
		cfg.CheckpointPath = ""
		cfg.Resume = false
	}
	// Anytime jobs stream their improving top-K and certified gap over the
	// job's event log after every completed level.
	if j.spec.Mode == ModeAnytime {
		events := j.events
		cfg.OnSnapshot = func(snap core.Snapshot) {
			topK, err := json.Marshal(snap.TopK)
			if err != nil {
				return
			}
			events.addSnapshot(snapshotEvent{
				Level:     snap.Level,
				Gap:       snap.Gap,
				ElapsedMS: snap.Elapsed.Milliseconds(),
				TopK:      topK,
			})
		}
	}

	// One span tree per job: the job span carries the context into the
	// enumeration, so core.run (and through it every level, eval and RPC
	// span) parents under it.
	sp := obs.Start(s.cfg.Tracer, "server.job")
	sp.SetStr("job", j.id)
	sp.SetStr("dataset", j.snap.ID)
	sp.SetBool("dist", j.useDist)
	sp.SetBool("resume", j.resume)
	defer sp.End()
	ctx = obs.ContextWith(ctx, sp)

	if j.useDist {
		opts := s.cfg.Dist
		opts.Tracer = s.cfg.Tracer
		opts.Metrics = s.cfg.Metrics
		if s.cfg.Membership != nil {
			// Elastic fleet: partition keys are content-addressed by the
			// dataset signature of the job's generation, so concurrent jobs
			// on shared workers cannot collide — and a partition shipped for
			// an earlier generation can never answer for a newer one. The
			// cluster follows the registrar for the job's duration, so
			// members that join, crash, or flap mid-run are absorbed by
			// rebalancing.
			opts.PlacementSeed = j.snap.Sig
			cluster, err := dist.NewElasticCluster(dist.MemberDialer(dist.DialOptions{}), opts)
			if err != nil {
				return nil, fmt.Errorf("server: building elastic cluster: %w", err)
			}
			defer cluster.Close()
			stop := cluster.Follow(ctx, s.cfg.Membership)
			defer stop()
			cfg.Evaluator = cluster
		} else {
			s.distMu.Lock()
			defer s.distMu.Unlock()
			cluster, err := dialCluster(s.cfg.DistWorkers, opts)
			if err != nil {
				return nil, fmt.Errorf("server: dialing workers: %w", err)
			}
			defer cluster.Close()
			cfg.Evaluator = cluster
		}
	}
	in := core.Input{DS: j.snap.DS, E: j.snap.ErrVec}
	if j.spec.Mode == ModeDiff {
		return core.RunDiff(ctx, in, j.baseSnap.ErrVec, cfg)
	}
	if j.spec.Window != nil {
		var err error
		if in.W, err = windowWeights(j.snap, j.spec.Window, time.Now()); err != nil {
			return nil, err
		}
	}
	return core.Run(ctx, in, cfg)
}

// windowWeights turns a WindowSpec into a 0/1 row-weight vector over the
// snapshot: rows outside the window weigh zero, so the weighted run computes
// "worst slices over the recent rows" — bit-identical to running on the
// suffix alone, because zero-weight rows contribute exact +0.0 terms to every
// aggregate. Duration bounds resolve at append-batch granularity: generation
// g's rows arrived at snap.GenAt[g] and occupy [GenEnd[g-1], GenEnd[g]).
func windowWeights(snap dsSnapshot, w *WindowSpec, now time.Time) ([]float64, error) {
	n := snap.DS.NumRows()
	lo := 0
	if w.LastRows > 0 && n-w.LastRows > lo {
		lo = n - w.LastRows
	}
	if w.LastMS > 0 {
		cutoff := now.Add(-time.Duration(w.LastMS) * time.Millisecond)
		tlo := n // nothing recent enough until proven otherwise
		for g := len(snap.GenAt) - 1; g >= 0; g-- {
			if snap.GenAt[g].Before(cutoff) {
				break
			}
			if g == 0 {
				tlo = 0
			} else {
				tlo = snap.GenEnd[g-1]
			}
		}
		if tlo > lo {
			lo = tlo
		}
	}
	if lo >= n {
		return nil, fmt.Errorf("server: window selects no rows (dataset has %d, all older than the window)", n)
	}
	weights := make([]float64, n)
	for i := lo; i < n; i++ {
		weights[i] = 1
	}
	return weights, nil
}

// dialCluster connects to every worker address and assembles the cluster.
func dialCluster(addrs []string, opts dist.Options) (*dist.Cluster, error) {
	workers := make([]dist.Worker, 0, len(addrs))
	for _, a := range addrs {
		w, err := dist.Dial(a)
		if err != nil {
			for _, prev := range workers {
				if c, ok := prev.(*dist.RemoteWorker); ok {
					c.Close()
				}
			}
			return nil, err
		}
		workers = append(workers, w)
	}
	return dist.NewClusterOpts(workers, opts)
}
