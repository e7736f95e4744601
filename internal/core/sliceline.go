package core

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"strconv"
	"time"

	"sliceline/internal/frame"
	"sliceline/internal/matrix"
	"sliceline/internal/obs"
)

// level holds the enumerated slices of one lattice level in the reduced
// one-hot column space: per slice its sorted column list and evaluated
// statistics (the paper's S and R = [sc, se, sm, ss]).
type level struct {
	cols [][]int
	sc   []float64
	se   []float64
	sm   []float64
	ss   []float64
	ub   []float64 // score upper bounds, only under PriorityEnumeration
}

func (l *level) size() int { return len(l.cols) }

// state carries the immutable inputs of one enumeration run.
type state struct {
	cfg      Config
	sc       scorer
	x        *matrix.CSR // reduced one-hot matrix, n × l'
	kernel   *Kernel     // built-in evaluation kernel over x (bitset/CSR selection)
	e        []float64
	w        []float64 // optional row weights (nil = unit weights)
	featOf   []int     // original feature per reduced column
	valOf    []int     // 1-based value code per reduced column
	m        int       // original feature count
	eval     ExternalEvaluator
	memo     *sliceMemo // incremental statistics memo (nil on batch runs)
	origCols []int      // original one-hot column per reduced column (= cI)
	ob       coreObs    // pre-resolved metric handles (all nil when metrics are off)
	sigLevel float64    // resolved FDR level for Slice.Significant
	totSq    float64    // Σ w_i·e_i², the global total behind welchP
	gen      *generator // candidate-generation scratch, reused across levels
}

// Input is the data of one enumeration run. DS supplies the integer-encoded
// rows X0 the run reads, and the feature names and decode labels of the
// result. E is the row-aligned error vector (finite, e >= 0), typically
// ml.SquaredLoss or ml.Inaccuracy of a trained model's predictions. W holds
// optional row weights (nil = unit weights): row i counts as W[i] identical
// rows in every size and error aggregate, so a dataset with duplicate rows
// can be deduplicated into (unique rows, weights) and produces exactly the
// same top-K as its expanded form. Zero weights are legal — a zero-weight
// row is excluded from every aggregate, including the max tuple error, which
// is how windowed runs retire rows — as long as the total weight is
// positive. Non-integer weights are permitted (Slice.Size then reports the
// truncated weighted size).
type Input struct {
	DS *frame.Dataset
	E  []float64
	W  []float64
}

// validateDataset runs frame.Dataset.Validate, the structural checks every
// read of X0's rows in run relies on.
func validateDataset(ds *frame.Dataset) error {
	if ds == nil {
		return fmt.Errorf("core: dataset is nil: %w", ErrNoFeatures)
	}
	return ds.Validate()
}

// Run executes SliceLine (Algorithm 1) on in and returns the top-K slices
// and per-level enumeration statistics. Cancellation of ctx is honored
// between lattice levels and propagated into external evaluators, so a
// cancelled run aborts in-flight distributed evaluations instead of waiting
// for the level to finish. Row weights cannot be combined with an external
// evaluator.
func Run(ctx context.Context, in Input, cfg Config) (*Result, error) {
	if err := validateDataset(in.DS); err != nil {
		return nil, err
	}
	return run(ctx, in.DS, in.E, in.W, cfg, nil)
}

// ValidateVectors checks a run's error vector and optional row weights:
// every entry must be finite and non-negative, and a non-nil w must have a
// positive total. Alignment with the data's row count is the caller's check.
// Every entry point validates through it — Run, RunDiff, NewIncremental,
// Incremental.Append and the server's dataset registration and append — so
// a NaN or infinite error can never surface as a NaN score.
func ValidateVectors(e, w []float64) error {
	for i, v := range e {
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("core: invalid error %v at row %d; SliceLine requires finite e >= 0: %w", v, i, ErrBadErrorVector)
		}
	}
	if w == nil {
		return nil
	}
	total := 0.0
	for i, v := range w {
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("core: invalid weight %v at row %d: %w", v, i, ErrBadWeight)
		}
		total += v
	}
	if total <= 0 {
		return fmt.Errorf("core: total weight %v is not positive: %w", total, ErrBadWeight)
	}
	return nil
}

// run is the enumeration behind Run, RunDiff and Incremental.Run over a
// valid dataset (frame.Dataset.Validate); memo is non-nil only for
// incremental runs.
func run(ctx context.Context, ds *frame.Dataset, e, w []float64, cfg Config, memo *sliceMemo) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := ds.NumRows()
	if len(e) != n {
		return nil, fmt.Errorf("core: error vector length %d vs %d rows: %w", len(e), n, ErrBadErrorVector)
	}
	if w != nil && len(w) != n {
		return nil, fmt.Errorf("core: weight vector length %d vs %d rows: %w", len(w), n, ErrBadWeight)
	}
	if err := ValidateVectors(e, w); err != nil {
		return nil, err
	}
	if w != nil && cfg.Evaluator != nil {
		return nil, fmt.Errorf("core: %w", ErrWeightedEvaluator)
	}
	if n == 0 {
		return nil, fmt.Errorf("core: %w", ErrEmptyDataset)
	}
	var sc scorer
	if w == nil {
		cfg = cfg.WithDefaults(n)
		sc = newScorer(n, e, cfg.Alpha, cfg.Sigma)
	} else {
		totalW := 0.0
		for _, v := range w {
			totalW += v
		}
		cfg = cfg.WithDefaults(int(totalW))
		sc = newWeightedScorer(e, w, cfg.Alpha, cfg.Sigma)
	}
	start := time.Now()

	feats := ds.Features
	beg, width := oneHotOffsets(feats)
	st := &state{cfg: cfg, sc: sc, e: e, w: w, m: len(feats), memo: memo, ob: newCoreObs(cfg.Metrics)}
	st.sigLevel = cfg.Significance
	if st.sigLevel == 0 {
		st.sigLevel = DefaultSignificance
	}
	for i, v := range e {
		if w != nil {
			st.totSq += w[i] * v * v
		} else {
			st.totSq += v * v
		}
	}
	st.ob.runs.Inc()
	// When the caller's context already carries a span (e.g. the server's
	// per-job span), the run parents under it so one job yields one span
	// tree; otherwise the run starts a root span on the configured tracer.
	var runSpan *obs.Span
	if parent := obs.FromContext(ctx); parent != nil {
		runSpan = parent.Child("core.run")
	} else {
		runSpan = obs.Start(cfg.Tracer, "core.run")
	}
	runSpan.SetInt("rows", int64(n))
	runSpan.SetInt("features", int64(st.m))
	runSpan.SetInt("onehot_width", int64(width))
	runSpan.SetInt("nnz", int64(n*st.m))
	runSpan.SetInt("k", int64(cfg.K))
	runSpan.SetInt("sigma", int64(cfg.Sigma))
	runSpan.SetFloat("alpha", cfg.Alpha)
	runSpan.SetBool("weighted", w != nil)
	runSpan.SetBool("external_evaluator", cfg.Evaluator != nil)
	defer runSpan.End()

	res := &Result{N: int(sc.n), AvgError: sc.avgErr, Sigma: cfg.Sigma, Alpha: cfg.Alpha}

	// b) Initialization: evaluate all basic (1-predicate) slices, keep the
	// valid ones and project X onto them (see setup.go).
	var cs []colStat
	var cI []int
	var evalL1 time.Duration
	setupSpan := runSpan.Child("core.setup")
	pprof.Do(ctx, pprof.Labels("phase", "setup"), func(context.Context) {
		initStart := time.Now()
		cs = columnStats(ds, beg, width, e, w)
		evalL1 = time.Since(initStart)
		cI = validColumns(cs, cfg)
		st.x = project(ds, beg, cs, cI)
	})
	setupSpan.SetInt("kept_cols", int64(len(cI)))
	setupSpan.SetInt("reduced_nnz", int64(st.x.NNZ()))
	setupSpan.End()
	st.kernel = NewKernel(st.x, e, w, cfg.BitsetEval)
	// The run span rides the context from here on, so external evaluators
	// (and through them the distributed runtime) parent their spans under
	// the enumeration that issued the work.
	ctx = obs.ContextWith(ctx, runSpan)
	if cfg.Evaluator != nil {
		st.eval = cfg.Evaluator
		if err := st.eval.Setup(ctx, st.x, e); err != nil {
			return nil, fmt.Errorf("core: evaluator setup: %w", err)
		}
	}
	st.origCols = cI
	st.featOf = make([]int, len(cI))
	st.valOf = make([]int, len(cI))
	cur := &level{}
	f := 0
	for k, c := range cI {
		for f+1 < len(beg) && beg[f+1] <= c {
			f++
		}
		st.featOf[k] = f
		st.valOf[k] = c - beg[f] + 1
		b := cs[c]
		cur.cols = append(cur.cols, []int{k})
		cur.sc = append(cur.sc, sc.score(b.ss, b.se))
		cur.se = append(cur.se, b.se)
		cur.sm = append(cur.sm, b.sm)
		cur.ss = append(cur.ss, b.ss)
	}

	tk := newTopK(cfg.K, float64(cfg.Sigma))

	var ck *checkpointer
	if cfg.CheckpointPath != "" {
		ck = &checkpointer{path: cfg.CheckpointPath, sig: Signature(ds, e, w, cfg)}
	}
	resumedLevel := 0
	if cfg.Resume && ck != nil {
		csp := runSpan.Child("core.checkpoint.load")
		lvl, err := ck.load(tk, cur, res)
		csp.SetInt("level", int64(lvl))
		csp.End()
		if err != nil {
			return nil, err
		}
		if lvl > 0 {
			st.ob.ckLoads.Inc()
		}
		resumedLevel = lvl
	}

	if resumedLevel == 0 {
		lsp := runSpan.Child("core.level")
		lsp.SetInt("level", 1)
		for i := range cur.cols {
			tk.offer(cur.cols[i], cur.sc[i], cur.ss[i], cur.se[i], cur.sm[i])
		}
		ls := LevelStats{
			Level:       1,
			Candidates:  width,
			Valid:       countValid(cur, float64(cfg.Sigma)),
			Elapsed:     time.Since(start),
			EvalElapsed: evalL1,
		}
		res.Levels = append(res.Levels, ls)
		lsp.SetInt("candidates", int64(ls.Candidates))
		lsp.SetInt("valid", int64(ls.Valid))
		lsp.SetFloat("threshold", tk.threshold())
		st.ob.levels.Inc()
		st.ob.candidates.Add(int64(ls.Candidates))
		st.ob.threshold.Set(tk.threshold())
		st.ob.levelSecs.Observe(time.Since(start).Seconds())
		lsp.End()
		// Persist before the progress callback: a run killed inside the
		// callback resumes from the level it just reported.
		if err := st.saveCheckpoint(ck, 1, tk, cur, res, runSpan); err != nil {
			return nil, err
		}
		if st.cfg.OnLevel != nil {
			st.cfg.OnLevel(ls)
		}
		st.emitSnapshot(tk, cur, 1, feats, start)
		resumedLevel = 1
	}

	// c) Level-wise lattice enumeration.
	maxL := st.m
	if cfg.MaxLevel > 0 && cfg.MaxLevel < maxL {
		maxL = cfg.MaxLevel
	}
	completed := resumedLevel
	for lvl := resumedLevel + 1; lvl <= maxL && cur.size() > 0; lvl++ {
		// Anytime boundary: the budget is only consulted between levels, so
		// a budget stop leaves exactly the state of a batch run with
		// MaxLevel = completed — the anytime ≡ batch identity.
		if st.budgetExceeded(start) {
			runSpan.Event("anytime: budget exhausted, stopping enumeration")
			break
		}
		// Cancellation boundary: a checkpoint for the previous level is on
		// disk, so a run aborted here resumes without losing completed work.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: enumeration cancelled before level %d: %w", lvl, err)
		}
		lvlStart := time.Now()
		lsp := runSpan.Child("core.level")
		lsp.SetInt("level", int64(lvl))
		lsp.SetInt("frontier", int64(cur.size()))
		gsp := lsp.Child("core.generate")
		genStart := time.Now()
		var cand *level
		var pstats pruneStats
		pprof.Do(ctx, phaseLabels(lvl, "generate"), func(context.Context) {
			cand, pstats = st.pairCandidates(cur, lvl, tk.threshold(), gsp)
		})
		genElapsed := time.Since(genStart)
		gsp.End()
		pruned := pstats.total()
		setPruneAttrs(lsp, pstats)
		if cand == nil {
			// Generation itself exceeded the candidate budget.
			res.Truncated = true
			lsp.Event("truncated: candidate generation exceeded budget")
			lsp.End()
			st.recordLevel(res, LevelStats{
				Level: lvl, Elapsed: time.Since(start), GenerateElapsed: genElapsed,
			})
			break
		}
		lsp.SetInt("candidates", int64(cand.size()))
		if cand.size() == 0 {
			lsp.End()
			st.recordLevel(res, LevelStats{
				Level: lvl, Pruned: pruned, Elapsed: time.Since(start), GenerateElapsed: genElapsed,
			})
			// Every child was pruned: the frontier is empty and the top-K is
			// certified exact (gap 0).
			cur, completed = cand, lvl
			st.emitSnapshot(tk, cur, lvl, feats, start)
			break
		}
		if cand.size() > cfg.MaxCandidatesPerLevel {
			res.Truncated = true
			lsp.Event("truncated: level exceeds MaxCandidatesPerLevel")
			lsp.End()
			st.recordLevel(res, LevelStats{
				Level: lvl, Candidates: cand.size(), Pruned: pruned,
				Elapsed: time.Since(start), GenerateElapsed: genElapsed,
			})
			break
		}
		// Evaluation spans parent under the level span via the context.
		lctx := obs.ContextWith(ctx, lsp)
		// EvalElapsed covers the evaluation proper; priority enumeration
		// interleaves its top-K offers with evaluation batches.
		evalStart := time.Now()
		var err error
		pprof.Do(lctx, phaseLabels(lvl, "eval"), func(ctx context.Context) {
			if cfg.PriorityEnumeration {
				var extraPruned int
				cand, extraPruned, err = st.evalWithPriority(ctx, cand, lvl, tk)
				pruned += extraPruned
			} else {
				err = st.evalSlices(ctx, cand, lvl)
			}
		})
		evalElapsed := time.Since(evalStart)
		if err != nil {
			lsp.End()
			return nil, err
		}
		if !cfg.PriorityEnumeration {
			for i := range cand.cols {
				tk.offer(cand.cols[i], cand.sc[i], cand.ss[i], cand.se[i], cand.sm[i])
			}
		}
		ls := LevelStats{
			Level:           lvl,
			Candidates:      cand.size(),
			Valid:           countValid(cand, float64(cfg.Sigma)),
			Pruned:          pruned,
			Elapsed:         time.Since(start),
			GenerateElapsed: genElapsed,
			EvalElapsed:     evalElapsed,
		}
		res.Levels = append(res.Levels, ls)
		lsp.SetInt("evaluated", int64(ls.Candidates))
		lsp.SetInt("valid", int64(ls.Valid))
		lsp.SetInt("pruned", int64(ls.Pruned))
		lsp.SetFloat("threshold", tk.threshold())
		st.ob.levels.Inc()
		st.ob.candidates.Add(int64(ls.Candidates))
		st.ob.pruned.Add(int64(ls.Pruned))
		st.ob.threshold.Set(tk.threshold())
		st.ob.levelSecs.Observe(time.Since(lvlStart).Seconds())
		lsp.End()
		if err := st.saveCheckpoint(ck, lvl, tk, cand, res, runSpan); err != nil {
			return nil, err
		}
		if st.cfg.OnLevel != nil {
			st.cfg.OnLevel(ls)
		}
		cur, completed = cand, lvl
		st.emitSnapshot(tk, cur, lvl, feats, start)
	}

	res.TopK = st.decode(tk, feats)
	st.annotate(res.TopK, tk.entries)
	res.Gap = st.gapBound(cur, completed, tk.threshold())
	res.Elapsed = time.Since(start)
	runSpan.SetInt("levels", int64(len(res.Levels)))
	runSpan.SetInt("total_candidates", int64(res.TotalCandidates()))
	runSpan.SetInt("topk", int64(len(res.TopK)))
	runSpan.SetBool("truncated", res.Truncated)
	runSpan.SetFloat("gap", res.Gap)
	return res, nil
}

// saveCheckpoint wraps checkpointer.save with a span and a counter; a nil
// checkpointer stays a no-op.
func (st *state) saveCheckpoint(ck *checkpointer, lvl int, tk *topK, frontier *level, res *Result, parent *obs.Span) error {
	if ck == nil {
		return nil
	}
	sp := parent.Child("core.checkpoint.save")
	sp.SetInt("level", int64(lvl))
	err := ck.save(lvl, tk, frontier, res)
	sp.End()
	if err == nil {
		st.ob.ckSaves.Inc()
	}
	return err
}

// recordLevel appends a level's statistics and fires the progress callback.
func (st *state) recordLevel(res *Result, ls LevelStats) {
	res.Levels = append(res.Levels, ls)
	if st.cfg.OnLevel != nil {
		st.cfg.OnLevel(ls)
	}
}

func countValid(l *level, sigma float64) int {
	valid := 0
	for i := range l.cols {
		if l.ss[i] >= sigma && l.se[i] > 0 {
			valid++
		}
	}
	return valid
}

// phaseLabels are the profiler labels of one phase of one lattice level, so
// that CPU profiles split by level and phase (go tool pprof -tagfocus
// phase=generate); goroutines a phase starts inherit them.
func phaseLabels(lvl int, phase string) pprof.LabelSet {
	return pprof.Labels("level", strconv.Itoa(lvl), "phase", phase)
}
