package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"
)

// Diff slicing: given two error vectors for the same rows — a baseline
// model's and a new model's — find the slices where the new model got worse
// (regressions) and where it got better (improvements). Each direction is an
// ordinary SliceLine problem over the rectified error delta:
//
//	regressions:  e⁺ = max(0, eNew − eBase)
//	improvements: e⁻ = max(0, eBase − eNew)
//
// lowered onto the weighted enumeration path with unit weights, so each
// direction is bit-identical to a weighted Run over that delta — the diff
// differential proof. Rows whose error moved the other way contribute zero,
// exactly like rows with zero error in a plain run.

// RunDiff finds the top slices of model-behavior change between a baseline
// error vector eBase and in.E, the new model's errors over the same rows:
// slices where the new model regressed (Slice.DiffSign = +1) and where it
// improved (DiffSign = -1). Both directions are enumerated with the same
// configuration; the merged top-K interleaves them by score. Row weights and
// external evaluators are not supported (the lowering is weighted); diff
// runs always evaluate locally.
func RunDiff(ctx context.Context, in Input, eBase []float64, cfg Config) (*Result, error) {
	enc, err := in.encoding()
	if err != nil {
		return nil, err
	}
	n := enc.X.Rows()
	if len(eBase) != n {
		return nil, fmt.Errorf("core: baseline error vector length %d vs %d rows: %w", len(eBase), n, ErrBadErrorVector)
	}
	if len(in.E) != n {
		return nil, fmt.Errorf("core: error vector length %d vs %d rows: %w", len(in.E), n, ErrBadErrorVector)
	}
	if in.W != nil {
		return nil, fmt.Errorf("core: diff runs do not take row weights: %w", ErrBadWeight)
	}
	if cfg.Evaluator != nil {
		return nil, fmt.Errorf("core: diff slicing %w", ErrWeightedEvaluator)
	}
	if err := ValidateVectors(eBase, nil); err != nil {
		return nil, fmt.Errorf("core: baseline: %w", err)
	}
	if err := ValidateVectors(in.E, nil); err != nil {
		return nil, err
	}
	reg := make([]float64, n)
	imp := make([]float64, n)
	ones := make([]float64, n)
	for i, eNew := range in.E {
		if d := eNew - eBase[i]; d > 0 {
			reg[i] = d
		} else {
			imp[i] = -d
		}
		ones[i] = 1
	}
	start := time.Now()
	regRes, err := run(ctx, enc, in.DS.Features, reg, ones, cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("core: diff regression direction: %w", err)
	}
	impRes, err := run(ctx, enc, in.DS.Features, imp, ones, cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("core: diff improvement direction: %w", err)
	}
	return mergeDiff(regRes, impRes, time.Since(start)), nil
}

// mergeDiff combines the per-direction results into one: slices tagged with
// their direction sign and interleaved by score, level statistics
// concatenated (regressions first), and the weaker of the two certificates
// reported. AvgError is the mean absolute error delta (the two directions'
// rectified means sum to it). Per-slice q-values keep their per-direction
// families, so each direction's annotations equal a standalone run's.
func mergeDiff(regRes, impRes *Result, elapsed time.Duration) *Result {
	out := &Result{
		N:         regRes.N,
		AvgError:  regRes.AvgError + impRes.AvgError,
		Sigma:     regRes.Sigma,
		Alpha:     regRes.Alpha,
		Elapsed:   elapsed,
		Truncated: regRes.Truncated || impRes.Truncated,
		Gap:       math.Max(regRes.Gap, impRes.Gap),
	}
	for _, s := range regRes.TopK {
		s.DiffSign = +1
		out.TopK = append(out.TopK, s)
	}
	for _, s := range impRes.TopK {
		s.DiffSign = -1
		out.TopK = append(out.TopK, s)
	}
	sort.SliceStable(out.TopK, func(i, j int) bool {
		a, b := out.TopK[i], out.TopK[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Size != b.Size {
			return a.Size > b.Size
		}
		return a.DiffSign > b.DiffSign // regressions first on exact ties
	})
	out.Levels = append(out.Levels, regRes.Levels...)
	out.Levels = append(out.Levels, impRes.Levels...)
	return out
}
