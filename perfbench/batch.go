package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sliceline"
	"sliceline/internal/datagen"
	"sliceline/internal/fptol"
	"sliceline/internal/frame"
)

// contentSeed fixes the synthetic data of every workload. Like the paper's
// real datasets, a workload is one dataset; --seed permutes its rows (and so
// the dist partitions and the monitor's base/append split), which keeps the
// enumeration work — the thing the end-to-end metrics time — the same from
// seed to seed. Different content seeds move the candidate count of
// census-l3 by ±7%.
const contentSeed = 1

// A workload repeats its set-up at least minSetups times, and up to
// maxSetups times while the repetitions stay within setupBudget; setup_s is
// the median.
const (
	minSetups   = 3
	maxSetups   = 7
	setupBudget = 2 * time.Second
)

// repeatSetup times prepare as above, calling discard before every
// repetition after the first; the last prepared input is kept.
func repeatSetup(prepare func() error, discard func()) (float64, error) {
	var times []float64
	var total time.Duration
	for len(times) < minSetups || (len(times) < maxSetups && total < setupBudget) {
		if len(times) > 0 {
			discard()
		}
		t0 := time.Now()
		if err := prepare(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

// batchWorkload is one batch run shape: a generated dataset, a configuration
// and where candidates are evaluated.
type batchWorkload struct {
	rows, tinyRows int
	generate       func(n int, seed int64) *datagen.Generated
	cfg            sliceline.Config
	// workers > 0 evaluates through a dist.Cluster over that many loopback
	// TCP workers, with the options the sliceline CLI ships.
	workers int
}

var (
	// census-l3: correlated column groups make candidate generation the
	// dominant phase; level 4 is excluded because its generation exceeds the
	// candidate budget and truncates the run.
	censusL3 = batchWorkload{rows: 20000, tinyRows: 2000, generate: datagen.USCensus,
		cfg: sliceline.Config{MaxLevel: 3}}
	// criteo-wide: ~1M ultra-sparse one-hot columns of which a few hundred
	// survive σ, full lattice; encode, projection and the kernel dominate.
	criteoWide = batchWorkload{rows: 400000, tinyRows: 20000, generate: datagen.Criteo}
	// kdd-fleet: ~1M level-2 candidates shipped to two workers and back.
	kddFleet = batchWorkload{rows: 6000, tinyRows: 600, generate: datagen.KDD98,
		cfg: sliceline.Config{MaxLevel: 2}, workers: 2}
)

// batchInput is one prepared workload input.
type batchInput struct {
	ds    *sliceline.Dataset
	e     []float64
	fleet *fleet // nil for local evaluation
}

func (b batchWorkload) prepare(o options) (*batchInput, error) {
	n := b.rows
	if o.tiny {
		n = b.tinyRows
	}
	g := b.generate(n, contentSeed)
	in := &batchInput{}
	in.ds, in.e = permuteRows(g.DS, g.Err, o.seed)
	if b.workers > 0 {
		f, err := startFleet(b.workers)
		if err != nil {
			return nil, err
		}
		in.fleet = f
	}
	return in, nil
}

func (in *batchInput) close() {
	if in.fleet != nil {
		in.fleet.stop()
	}
}

func (b batchWorkload) run(ctx context.Context, o options) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	var in *batchInput
	setup, err := repeatSetup(func() (err error) {
		in, err = b.prepare(o)
		return err
	}, func() { in.close() })
	if err != nil {
		return nil, err
	}
	defer in.close()
	rep.metrics["setup_s"] = setup

	// One untimed local run lets the heap grow to its working size before
	// the clock starts; the first run of a process is slower by up to 15%.
	// On kdd-fleet it is also the reference the dist results must match.
	ref, err := sliceline.RunContext(ctx, in.ds, in.e, b.cfg)
	b.check(rep, o, in, ref, err, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	if in.fleet == nil {
		ref = nil
	}

	var times []float64
	start := time.Now()
	for len(times) == 0 || time.Since(start) < o.seconds {
		var opts []sliceline.Option
		var closeEval func()
		if in.fleet != nil {
			c, err := in.fleet.cluster(nil)
			if err != nil {
				return nil, err
			}
			opts, closeEval = append(opts, sliceline.WithEvaluator(c)), func() { c.Close() }
		}
		// Every run starts from a collected heap, so the number of GC
		// cycles inside a run does not depend on the runs before it.
		runtime.GC()
		t0 := time.Now()
		res, err := sliceline.RunContext(ctx, in.ds, in.e, b.cfg, opts...)
		dt := time.Since(t0)
		if closeEval != nil {
			closeEval()
		}
		times = append(times, dt.Seconds())
		b.check(rep, o, in, res, err, ref)
	}
	rep.metrics["run_s"] = median(times)
	fmt.Fprintf(o.log, "perfbench: run times %.3f s\n", times)
	if o.trace {
		if err := b.traced(ctx, o, rep, in, ref, median(times)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// traced makes one extra run with every observation hook the program offers
// and derives the per-layer metrics from it.
func (b batchWorkload) traced(ctx context.Context, o options, rep *report, in *batchInput, ref *sliceline.Result, untraced float64) error {
	m := rep.metrics
	if err := timeEncode(in.ds, m); err != nil {
		return err
	}

	tracer := sliceline.NewJSONTracer()
	var levels []sliceline.LevelStats
	opts := []sliceline.Option{
		sliceline.WithTracer(tracer),
		sliceline.WithOnLevel(func(ls sliceline.LevelStats) { levels = append(levels, ls) }),
	}
	var probe *distProbe
	if in.fleet != nil {
		var err error
		if probe, err = in.fleet.probe(); err != nil {
			return err
		}
		defer probe.close()
		opts = append(opts, sliceline.WithEvaluator(probe.eval))
	}
	runtime.GC()
	alloc := startAllocMeter()
	t0 := time.Now()
	res, err := sliceline.RunContext(ctx, in.ds, in.e, b.cfg, opts...)
	wall := time.Since(t0)
	alloc.metrics(m)
	b.check(rep, o, in, res, err, ref)
	if err != nil {
		return nil
	}
	cs, err := splitCore(tracer.Spans())
	if err != nil {
		return err
	}
	cs.metrics(m)
	levelCounts(levels, m)
	if probe != nil {
		probe.metrics(m)
	}
	m["trace.overhead_ratio"] = wall.Seconds() / untraced
	return nil
}

// check verifies one run's output and counts it: not truncated, K slices,
// and every slice's size and total error recounted from its rows. Against a
// reference (dist runs), predicates and sizes must match exactly and the
// statistics within fptol: partition merge order changes the summation.
func (b batchWorkload) check(rep *report, o options, in *batchInput, res *sliceline.Result, err error, ref *sliceline.Result) {
	rep.attempted++
	if err != nil {
		rep.fail(o, "run: %v", err)
		return
	}
	k := b.cfg.K
	if k <= 0 {
		k = 4
	}
	if res.Truncated || len(res.TopK) != k {
		rep.fail(o, "run truncated=%v with %d slices, want %d", res.Truncated, len(res.TopK), k)
		return
	}
	tol := fptol.DefaultTol
	for i, s := range res.TopK {
		rows, err := sliceline.SliceRows(in.ds, s)
		if err != nil {
			rep.fail(o, "slice %d rows: %v", i, err)
			return
		}
		total := 0.0
		for _, r := range rows {
			total += in.e[r]
		}
		if len(rows) != s.Size || !tol.Close(total, s.TotalError) {
			rep.fail(o, "slice %d %v: recount size %d error %v", i, s, len(rows), total)
			return
		}
		if ref == nil {
			continue
		}
		if i >= len(ref.TopK) {
			rep.fail(o, "slice %d is missing from the local run", i)
			return
		}
		r := ref.TopK[i]
		same := len(r.Predicates) == len(s.Predicates) && r.Size == s.Size
		for j := 0; same && j < len(r.Predicates); j++ {
			same = r.Predicates[j].Feature == s.Predicates[j].Feature && r.Predicates[j].Value == s.Predicates[j].Value
		}
		if !same || !tol.Close(r.Score, s.Score) || !tol.Close(r.TotalError, s.TotalError) || !tol.Close(r.MaxError, s.MaxError) {
			rep.fail(o, "slice %d differs from the local run: %v vs %v", i, s, r)
			return
		}
	}
}

// permuteRows returns the dataset and error vector with rows in a
// seed-determined order.
func permuteRows(ds *sliceline.Dataset, e []float64, seed int64) (*sliceline.Dataset, []float64) {
	n, m := ds.NumRows(), ds.NumFeatures()
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	out := &sliceline.Dataset{Name: ds.Name, X0: frame.NewIntMatrix(n, m), Features: ds.Features}
	pe := make([]float64, n)
	if ds.Y != nil {
		out.Y = make([]float64, n)
	}
	for i, p := range perm {
		copy(out.X0.Row(i), ds.X0.Row(p))
		pe[i] = e[p]
		if ds.Y != nil {
			out.Y[i] = ds.Y[p]
		}
	}
	return out, pe
}
