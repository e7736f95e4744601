package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"sliceline"
	"sliceline/internal/frame"
)

// coreSplit is the time of one or more core.run span trees split over the
// enumeration's phases. It is derived only from the spans the program
// already emits (core.run → core.level → core.eval):
//
//	setup    core.run start → first core.level start (aggregates, SelectCols, evaluator setup)
//	generate core.level start → core.eval start (candidate generation and pruning)
//	eval     the core.eval spans (bitset pack on first use, kernel or dist round trip)
//	topk     core.eval end → core.level end, and all of level 1 (top-K maintenance)
//	decode   last core.level end → core.run end (decode, annotation, gap)
//
// The short gaps between consecutive levels (progress callbacks) fall in no
// phase, so the phases cover the run span to within a few percent.
type coreSplit struct {
	runs                                  int
	run, setup, generate, eval, topk, dec time.Duration
	generateAt, evalAt                    map[int]time.Duration // by lattice level
	runDurs, evalDurs                     []float64             // per span, seconds
}

func splitCore(spans []*sliceline.Span) (coreSplit, error) {
	cs := coreSplit{generateAt: map[int]time.Duration{}, evalAt: map[int]time.Duration{}}
	children := make(map[uint64][]*sliceline.Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	end := func(s *sliceline.Span) time.Time { return s.Start.Add(s.Dur) }
	for _, run := range spans {
		if run.Name != "core.run" {
			continue
		}
		var levels []*sliceline.Span
		for _, c := range children[run.ID] {
			if c.Name == "core.level" {
				levels = append(levels, c)
			}
		}
		if len(levels) == 0 {
			return cs, fmt.Errorf("core.run span %d has no core.level children", run.ID)
		}
		sort.Slice(levels, func(i, j int) bool { return levels[i].Start.Before(levels[j].Start) })
		cs.runs++
		cs.run += run.Dur
		cs.runDurs = append(cs.runDurs, run.Dur.Seconds())
		cs.setup += levels[0].Start.Sub(run.Start)
		cs.dec += end(run).Sub(end(levels[len(levels)-1]))
		for _, lv := range levels {
			var ev *sliceline.Span
			for _, c := range children[lv.ID] {
				if c.Name == "core.eval" {
					ev = c
				}
			}
			if ev == nil {
				cs.topk += lv.Dur
				continue
			}
			l := int(lv.AttrInt("level", 0))
			gen := ev.Start.Sub(lv.Start)
			cs.generate += gen
			cs.generateAt[l] += gen
			cs.eval += ev.Dur
			cs.evalAt[l] += ev.Dur
			cs.evalDurs = append(cs.evalDurs, ev.Dur.Seconds())
			cs.topk += end(lv).Sub(end(ev))
		}
	}
	if cs.runs == 0 {
		return cs, fmt.Errorf("trace holds no core.run span")
	}
	return cs, nil
}

func (cs coreSplit) metrics(m map[string]float64) {
	m["core.setup_s"] = cs.setup.Seconds()
	m["core.generate_s"] = cs.generate.Seconds()
	m["core.eval_s"] = cs.eval.Seconds()
	m["core.topk_s"] = cs.topk.Seconds()
	m["core.decode_s"] = cs.dec.Seconds()
	for _, l := range reportedLevels {
		m[fmt.Sprintf("core.generate_s.l%d", l)] = cs.generateAt[l].Seconds()
		m[fmt.Sprintf("core.eval_s.l%d", l)] = cs.evalAt[l].Seconds()
	}
}

// levelCounts folds the per-level statistics a run reports through
// WithOnLevel. Level 1 counts every one-hot column as a candidate; the two
// ratios cover the generated levels (2 and up) only, where pruning happens.
func levelCounts(levels []sliceline.LevelStats, m map[string]float64) {
	var cands, pruned, genEval, genPruned, genValid int
	for _, ls := range levels {
		cands += ls.Candidates
		pruned += ls.Pruned
		if ls.Level >= 2 {
			genEval += ls.Candidates
			genPruned += ls.Pruned
			genValid += ls.Valid
		}
	}
	m["core.levels"] = float64(len(levels))
	m["core.candidates"] = float64(cands)
	m["core.pruned"] = float64(pruned)
	if genEval+genPruned > 0 {
		m["core.generate.kept_ratio"] = float64(genEval) / float64(genEval+genPruned)
	}
	if genEval > 0 {
		m["core.eval.valid_ratio"] = float64(genValid) / float64(genEval)
	}
}

// timeEncode times one frame.OneHot call on ds, the encoding every run
// starts with.
func timeEncode(ds *sliceline.Dataset, m map[string]float64) error {
	t0 := time.Now()
	if _, err := frame.OneHot(ds); err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	m["frame.encode_s"] = time.Since(t0).Seconds()
	return nil
}

// allocMeter measures heap allocation and GC cycles over an interval.
type allocMeter struct{ before runtime.MemStats }

func startAllocMeter() *allocMeter {
	a := &allocMeter{}
	runtime.ReadMemStats(&a.before)
	return a
}

func (a *allocMeter) metrics(m map[string]float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m["core.alloc_mb"] = float64(after.TotalAlloc-a.before.TotalAlloc) / 1e6
	m["core.gc_cycles"] = float64(after.NumGC - a.before.NumGC)
}
