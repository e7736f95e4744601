package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"sliceline/internal/fptol"
	"sliceline/internal/frame"
)

// randomDataset builds a small random dataset plus a non-negative error
// vector, suitable for exhaustive cross-checking.
func randomDataset(rng *rand.Rand, n, m, maxDom int) (*frame.Dataset, []float64) {
	ds := &frame.Dataset{
		Name:     "rand",
		X0:       frame.NewIntMatrix(n, m),
		Features: make([]frame.Feature, m),
	}
	for j := 0; j < m; j++ {
		dom := 2 + rng.Intn(maxDom-1)
		ds.Features[j] = frame.Feature{Name: featureName(j), Domain: dom}
		for i := 0; i < n; i++ {
			ds.X0.Set(i, j, 1+rng.Intn(dom))
		}
	}
	e := make([]float64, n)
	for i := range e {
		if rng.Float64() < 0.3 {
			e[i] = 0 // mix in exact zeros: correct models are common
		} else {
			e[i] = rng.Float64()
		}
	}
	return ds, e
}

func featureName(j int) string { return string(rune('a' + j)) }

func scoresOf(slices []Slice) []float64 {
	out := make([]float64, len(slices))
	for i, s := range slices {
		out[i] = s.Score
	}
	return out
}

// approxEqualScores compares rank-aligned scores under the shared ULP
// tolerance of internal/fptol: scores are order-dependent float64
// summations, so different evaluation plans (and brute force) legitimately
// differ in the last ULPs while agreeing on every ranking decision.
func approxEqualScores(a, b []float64) bool {
	return fptol.DefaultTol.CloseSlices(a, b)
}

// TestExactnessAgainstBruteForce is the repository's central correctness
// test: on random datasets, the pruned linear-algebra enumerator must return
// exactly the same top-K scores as exhaustive lattice enumeration — the
// paper's exactness guarantee.
func TestExactnessAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 60
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		n := 50 + rng.Intn(150)
		m := 2 + rng.Intn(4)
		ds, e := randomDataset(rng, n, m, 4)
		cfg := Config{
			K:     1 + rng.Intn(6),
			Sigma: 2 + rng.Intn(10),
			Alpha: 0.3 + 0.69*rng.Float64(),
		}
		got, err := Run(context.Background(), Input{DS: ds, E: e}, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := BruteForce(ds, e, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !approxEqualScores(scoresOf(got.TopK), scoresOf(want)) {
			t.Fatalf("trial %d (n=%d m=%d K=%d sigma=%d alpha=%v):\nsliceline scores %v\nbruteforce scores %v",
				trial, n, m, cfg.K, cfg.Sigma, cfg.Alpha,
				scoresOf(got.TopK), scoresOf(want))
		}
	}
}

// TestExactnessWithMaxLevel verifies that ⌈L⌉-capped runs match brute force
// capped at the same depth.
func TestExactnessWithMaxLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 20; trial++ {
		ds, e := randomDataset(rng, 120, 5, 3)
		cfg := Config{K: 4, Sigma: 3, Alpha: 0.9, MaxLevel: 2}
		got, err := Run(context.Background(), Input{DS: ds, E: e}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BruteForce(ds, e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEqualScores(scoresOf(got.TopK), scoresOf(want)) {
			t.Fatalf("trial %d: %v vs %v", trial, scoresOf(got.TopK), scoresOf(want))
		}
	}
}

// TestPruningDoesNotChangeTopK compares all ablation configurations against
// the fully pruned run: pruning must only affect work, never results.
func TestPruningDoesNotChangeTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		ds, e := randomDataset(rng, 100, 4, 3)
		base := Config{K: 5, Sigma: 3, Alpha: 0.85}
		ref, err := Run(context.Background(), Input{DS: ds, E: e}, base)
		if err != nil {
			t.Fatal(err)
		}
		variants := []Config{
			{K: 5, Sigma: 3, Alpha: 0.85, DisableParentHandling: true},
			{K: 5, Sigma: 3, Alpha: 0.85, DisableParentHandling: true, DisableScorePruning: true},
			{K: 5, Sigma: 3, Alpha: 0.85, DisableParentHandling: true, DisableScorePruning: true, DisableSizePruning: true},
			{K: 5, Sigma: 3, Alpha: 0.85, DisableParentHandling: true, DisableScorePruning: true, DisableSizePruning: true, DisableDedup: true},
		}
		for vi, vc := range variants {
			got, err := Run(context.Background(), Input{DS: ds, E: e}, vc)
			if err != nil {
				t.Fatal(err)
			}
			if !approxEqualScores(scoresOf(got.TopK), scoresOf(ref.TopK)) {
				t.Fatalf("trial %d variant %d: %v vs ref %v", trial, vi, scoresOf(got.TopK), scoresOf(ref.TopK))
			}
		}
	}
}

// TestPruningReducesCandidates: enabling pruning must never evaluate more
// candidates than the unpruned run (the Figure 3 effect).
func TestPruningReducesCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ds, e := randomDataset(rng, 200, 5, 3)
	pruned, err := Run(context.Background(), Input{DS: ds, E: e}, Config{K: 4, Sigma: 4, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	unpruned, err := Run(context.Background(), Input{DS: ds, E: e}, Config{
		K: 4, Sigma: 4, Alpha: 0.9,
		DisableParentHandling: true, DisableScorePruning: true,
		DisableSizePruning: true, DisableDedup: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.TotalCandidates() > unpruned.TotalCandidates() {
		t.Fatalf("pruned evaluates %d > unpruned %d", pruned.TotalCandidates(), unpruned.TotalCandidates())
	}
}

func TestRunValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds, e := randomDataset(rng, 20, 2, 3)
	if _, err := Run(context.Background(), Input{DS: ds, E: e[:10]}, Config{}); err == nil {
		t.Error("expected error for short error vector")
	}
	e[3] = -1
	if _, err := Run(context.Background(), Input{DS: ds, E: e}, Config{}); err == nil {
		t.Error("expected error for negative error value")
	}
}

func TestRunEmptyDataset(t *testing.T) {
	ds := &frame.Dataset{Name: "empty", X0: frame.NewIntMatrix(0, 1), Features: []frame.Feature{{Name: "f", Domain: 1}}}
	if _, err := Run(context.Background(), Input{DS: ds, E: nil}, Config{}); err == nil {
		t.Error("expected error for empty dataset")
	}
}

func TestRunDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ds, e := randomDataset(rng, 5000, 3, 4)
	res, err := Run(context.Background(), Input{DS: ds, E: e}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sigma != 50 {
		t.Errorf("default sigma = %d, want ceil(5000/100) = 50", res.Sigma)
	}
	if res.Alpha != DefaultAlpha {
		t.Errorf("default alpha = %v, want %v", res.Alpha, DefaultAlpha)
	}
	if len(res.TopK) > DefaultK {
		t.Errorf("topK = %d, want <= %d", len(res.TopK), DefaultK)
	}
}

func TestRunSigmaFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds, e := randomDataset(rng, 100, 2, 3)
	res, err := Run(context.Background(), Input{DS: ds, E: e}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sigma != 32 {
		t.Errorf("sigma = %d, want floor 32 for small n", res.Sigma)
	}
}

func TestResultSlicesRespectConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		ds, e := randomDataset(rng, 150, 4, 3)
		cfg := Config{K: 8, Sigma: 5, Alpha: 0.9}
		res, err := Run(context.Background(), Input{DS: ds, E: e}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		prev := math.Inf(1)
		for _, s := range res.TopK {
			if s.Score <= 0 {
				t.Errorf("slice score %v <= 0", s.Score)
			}
			if s.Size < cfg.Sigma {
				t.Errorf("slice size %d < sigma %d", s.Size, cfg.Sigma)
			}
			if s.Score > prev+1e-12 {
				t.Errorf("scores not descending: %v after %v", s.Score, prev)
			}
			prev = s.Score
			// Predicates reference distinct features with in-domain values.
			seen := map[int]bool{}
			for _, p := range s.Predicates {
				if seen[p.Feature] {
					t.Errorf("duplicate feature %d in slice", p.Feature)
				}
				seen[p.Feature] = true
				if p.Value < 1 || p.Value > ds.Features[p.Feature].Domain {
					t.Errorf("predicate value %d out of domain", p.Value)
				}
			}
		}
	}
}

// TestSliceStatsMatchDirectScan recomputes each returned slice's statistics
// by direct filtering and compares.
func TestSliceStatsMatchDirectScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ds, e := randomDataset(rng, 300, 4, 4)
	res, err := Run(context.Background(), Input{DS: ds, E: e}, Config{K: 6, Sigma: 3, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) == 0 {
		t.Skip("no qualifying slices in this draw")
	}
	for si, s := range res.TopK {
		ss, se, sm := 0, 0.0, 0.0
		for i := 0; i < ds.NumRows(); i++ {
			match := true
			for _, p := range s.Predicates {
				if ds.X0.At(i, p.Feature) != p.Value {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			ss++
			se += e[i]
			if e[i] > sm {
				sm = e[i]
			}
		}
		if ss != s.Size {
			t.Errorf("slice %d: size %d, scan says %d", si, s.Size, ss)
		}
		if math.Abs(se-s.TotalError) > 1e-9 {
			t.Errorf("slice %d: se %v, scan says %v", si, s.TotalError, se)
		}
		if math.Abs(sm-s.MaxError) > 1e-12 {
			t.Errorf("slice %d: sm %v, scan says %v", si, s.MaxError, sm)
		}
	}
}

func TestLevelStatsMonotoneElapsed(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ds, e := randomDataset(rng, 200, 5, 3)
	res, err := Run(context.Background(), Input{DS: ds, E: e}, Config{K: 4, Sigma: 3, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) == 0 {
		t.Fatal("no level stats recorded")
	}
	if res.Levels[0].Level != 1 {
		t.Errorf("first level = %d, want 1", res.Levels[0].Level)
	}
	for i := 1; i < len(res.Levels); i++ {
		if res.Levels[i].Elapsed < res.Levels[i-1].Elapsed {
			t.Errorf("elapsed not monotone at level %d", res.Levels[i].Level)
		}
		if res.Levels[i].Level != res.Levels[i-1].Level+1 {
			t.Errorf("levels not consecutive at %d", i)
		}
	}
}

// TestLevelStatsPhaseSplit: each level's generation and evaluation are
// disjoint sub-intervals of that level, so together they never exceed the
// level's share of the cumulative Elapsed; level 1 generates nothing.
func TestLevelStatsPhaseSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ds, e := randomDataset(rng, 200, 5, 3)
	res, err := Run(context.Background(), Input{DS: ds, E: e}, Config{K: 4, Sigma: 3, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) < 2 {
		t.Fatalf("only %d levels recorded", len(res.Levels))
	}
	var prev, eval time.Duration
	for _, l := range res.Levels {
		if l.GenerateElapsed < 0 || l.EvalElapsed < 0 {
			t.Fatalf("level %d: negative phase time %+v", l.Level, l)
		}
		if l.GenerateElapsed+l.EvalElapsed > l.Elapsed-prev {
			t.Fatalf("level %d: generate %v + eval %v exceed the level's %v", l.Level, l.GenerateElapsed, l.EvalElapsed, l.Elapsed-prev)
		}
		prev = l.Elapsed
		eval += l.EvalElapsed
	}
	if res.Levels[0].GenerateElapsed != 0 {
		t.Fatalf("level 1 generate = %v, want 0", res.Levels[0].GenerateElapsed)
	}
	if eval == 0 {
		t.Fatal("no evaluation time recorded on any level")
	}
}

func TestMaxCandidatesTruncates(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ds, e := randomDataset(rng, 200, 6, 4)
	res, err := Run(context.Background(), Input{DS: ds, E: e}, Config{
		K: 4, Sigma: 1, Alpha: 0.99,
		DisableSizePruning: true, DisableScorePruning: true,
		DisableParentHandling: true, DisableDedup: true,
		MaxCandidatesPerLevel: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("expected truncation with tiny candidate budget")
	}
}

// TestBlockSizesAgree: evaluation must be independent of the hybrid block
// size b (task-parallel, blocked, and data-parallel plans are equivalent).
func TestBlockSizesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ds, e := randomDataset(rng, 250, 4, 4)
	var ref []float64
	for _, b := range []int{1, 2, 7, 16, 1 << 20} {
		res, err := Run(context.Background(), Input{DS: ds, E: e}, Config{K: 6, Sigma: 3, Alpha: 0.9, BlockSize: b})
		if err != nil {
			t.Fatal(err)
		}
		got := scoresOf(res.TopK)
		if ref == nil {
			ref = got
			continue
		}
		if !approxEqualScores(got, ref) {
			t.Fatalf("block size %d scores %v differ from %v", b, got, ref)
		}
	}
}

func TestSingleFeatureDataset(t *testing.T) {
	ds := &frame.Dataset{
		Name:     "one",
		X0:       frame.NewIntMatrix(10, 1),
		Features: []frame.Feature{{Name: "f", Domain: 2}},
	}
	e := make([]float64, 10)
	for i := 0; i < 10; i++ {
		if i < 5 {
			ds.X0.Set(i, 0, 1)
			e[i] = 1 // all error in value 1
		} else {
			ds.X0.Set(i, 0, 2)
		}
	}
	res, err := Run(context.Background(), Input{DS: ds, E: e}, Config{K: 2, Sigma: 2, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != 1 {
		t.Fatalf("topK = %d slices, want 1", len(res.TopK))
	}
	s := res.TopK[0]
	if s.Size != 5 || s.Predicates[0].Value != 1 {
		t.Fatalf("unexpected slice %v", s)
	}
}

func TestAlphaOneIgnoresSize(t *testing.T) {
	// With alpha = 1 the size term vanishes; the best slice is the one with
	// the highest average error meeting the support threshold.
	rng := rand.New(rand.NewSource(17))
	ds, e := randomDataset(rng, 150, 3, 3)
	res, err := Run(context.Background(), Input{DS: ds, E: e}, Config{K: 3, Sigma: 5, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(ds, e, Config{K: 3, Sigma: 5, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqualScores(scoresOf(res.TopK), scoresOf(want)) {
		t.Fatalf("alpha=1: %v vs %v", scoresOf(res.TopK), scoresOf(want))
	}
}
