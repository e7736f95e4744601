package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"sliceline/internal/frame"
)

// catFrameOf builds a categorical-only frame from row-major cells.
func catFrameOf(t *testing.T, names []string, rows [][]string) *frame.Frame {
	t.Helper()
	cols := make([]frame.Column, len(names))
	for j, name := range names {
		c := frame.Column{Name: name, Kind: frame.Categorical}
		for _, r := range rows {
			c.Strings = append(c.Strings, r[j])
		}
		cols[j] = c
	}
	fr, err := frame.NewFrame(cols)
	if err != nil {
		t.Fatalf("NewFrame: %v", err)
	}
	return fr
}

// stripElapsed zeroes the wall-clock fields so Levels can be compared.
func stripElapsed(ls []LevelStats) []LevelStats {
	out := append([]LevelStats(nil), ls...)
	for i := range out {
		out[i].Elapsed, out[i].GenerateElapsed, out[i].EvalElapsed = 0, 0, 0
	}
	return out
}

// requireIdenticalResults asserts bit-identical top-K and identical
// enumeration counts between an incremental and a from-scratch result.
func requireIdenticalResults(t *testing.T, gen int, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.TopK, want.TopK) {
		t.Fatalf("generation %d: top-K differs:\nincremental: %+v\nfrom-scratch: %+v", gen, got.TopK, want.TopK)
	}
	if !reflect.DeepEqual(stripElapsed(got.Levels), stripElapsed(want.Levels)) {
		t.Fatalf("generation %d: level stats differ:\nincremental: %+v\nfrom-scratch: %+v",
			gen, stripElapsed(got.Levels), stripElapsed(want.Levels))
	}
	if got.N != want.N || got.AvgError != want.AvgError || got.Sigma != want.Sigma {
		t.Fatalf("generation %d: header differs: got N=%d ē=%v σ=%d, want N=%d ē=%v σ=%d",
			gen, got.N, got.AvgError, got.Sigma, want.N, want.AvgError, want.Sigma)
	}
}

// randomCatRows generates rows over m features; domains widen as gen grows so
// later batches allocate fresh one-hot columns (domain growth).
func randomCatRows(rng *rand.Rand, n, m, dom, gen int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = make([]string, m)
		for j := range rows[i] {
			if gen > 0 && rng.Intn(6) == 0 {
				rows[i][j] = "g" + strconv.Itoa(gen) + "v" + strconv.Itoa(j)
			} else {
				rows[i][j] = "v" + strconv.Itoa(rng.Intn(dom))
			}
		}
	}
	return rows
}

func randomErrs(rng *rand.Rand, n int) []float64 {
	e := make([]float64, n)
	for i := range e {
		if rng.Float64() < 0.3 {
			e[i] = 0
		} else {
			e[i] = rng.Float64()
		}
	}
	return e
}

// TestIncrementalMatchesFromScratch is the differential backstop of the
// streaming tentpole: over a seeded schedule of appends — more than five,
// several growing feature domains — the maintained top-K must be
// bit-identical to a from-scratch run over the accumulated data at every
// generation, as must the per-level enumeration counts (proof that pruning
// decisions replay identically, not just the final ranking).
func TestIncrementalMatchesFromScratch(t *testing.T) {
	names := []string{"dev", "os", "region"}
	for _, seed := range []int64{1, 7, 99} {
		rng := rand.New(rand.NewSource(seed))
		base := randomCatRows(rng, 60, len(names), 3, 0)
		ds, err := frame.FromFrame(catFrameOf(t, names, base), "", 5)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := frame.OneHot(ds)
		if err != nil {
			t.Fatal(err)
		}
		ap, err := frame.NewAppender(ds, enc)
		if err != nil {
			t.Fatal(err)
		}
		e := randomErrs(rng, len(base))
		cfg := Config{K: 4, Sigma: 5, Alpha: 0.9}
		inc, err := NewIncremental(enc, ds.Features, e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		grown := 0
		for gen := 0; gen <= 6; gen++ {
			if gen > 0 {
				batch := randomCatRows(rng, 5+rng.Intn(10), len(names), 3, gen)
				res, err := ap.AppendRows(batch)
				if err != nil {
					t.Fatalf("seed %d gen %d: AppendRows: %v", seed, gen, err)
				}
				if res.ColRemap != nil {
					grown++
				}
				errs := randomErrs(rng, res.NewRows)
				if err := inc.Append(res, errs); err != nil {
					t.Fatalf("seed %d gen %d: Append: %v", seed, gen, err)
				}
				e = append(e, errs...)
			}
			got, err := inc.Run(ctx)
			if err != nil {
				t.Fatalf("seed %d gen %d: incremental run: %v", seed, gen, err)
			}
			// Reference: BitsetOn pins the from-scratch kernel to whole-row
			// sequential accumulation, the order the memo continues.
			refCfg := cfg
			refCfg.BitsetEval = BitsetOn
			want, err := Run(context.Background(), Input{DS: ap.Dataset(), Enc: ap.Encoding(), E: e}, refCfg)
			if err != nil {
				t.Fatalf("seed %d gen %d: reference run: %v", seed, gen, err)
			}
			requireIdenticalResults(t, gen, got, want)
		}
		if grown == 0 {
			t.Fatalf("seed %d: schedule never grew a domain; test is too weak", seed)
		}
		if inc.Generation() != 6 {
			t.Fatalf("generation = %d, want 6", inc.Generation())
		}
	}
}

// TestIncrementalMemoReuse: the second generation must continue most level>=2
// candidates from the memo instead of rescanning from row 0.
func TestIncrementalMemoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	names := []string{"a", "b", "c"}
	base := randomCatRows(rng, 80, len(names), 3, 0)
	ds, err := frame.FromFrame(catFrameOf(t, names, base), "", 5)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := frame.NewAppender(ds, enc)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(enc, ds.Features, randomErrs(rng, len(base)), Config{K: 4, Sigma: 4, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := inc.Stats()
	if st.Entries == 0 || st.Misses == 0 {
		t.Fatalf("first run: entries=%d misses=%d, want > 0", st.Entries, st.Misses)
	}
	if st.Hits != 0 {
		t.Fatalf("first run: hits=%d, want 0", st.Hits)
	}
	res, err := ap.AppendRows(randomCatRows(rng, 6, len(names), 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Append(res, randomErrs(rng, res.NewRows)); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st2 := inc.Stats()
	if st2.Hits == 0 {
		t.Fatal("second run: no memo hits")
	}
	if st2.Rows != 86 || st2.Generation != 1 {
		t.Fatalf("stats = %+v", st2)
	}
}

func TestIncrementalRejectsConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds, e := randomDataset(rng, 40, 3, 3)
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"external":   {Evaluator: stubEvaluator{}},
		"dense":      {DenseEval: true},
		"priority":   {PriorityEnumeration: true},
		"checkpoint": {CheckpointPath: t.TempDir() + "/ck"},
		"resume":     {Resume: true},
	} {
		if _, err := NewIncremental(enc, ds.Features, e, cfg); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	if _, err := NewIncremental(enc, ds.Features, e[:5], Config{}); err == nil {
		t.Error("short error vector: want error")
	}
}

func TestIncrementalAppendValidation(t *testing.T) {
	names := []string{"f"}
	base := [][]string{{"a"}, {"b"}, {"a"}}
	ds, err := frame.FromFrame(catFrameOf(t, names, base), "", 5)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := frame.NewAppender(ds, enc)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(enc, ds.Features, []float64{0, 1, 0}, Config{Sigma: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ap.AppendRows([][]string{{"b"}, {"c"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Append(res, []float64{1}); err == nil {
		t.Error("short errs: want error")
	}
	if err := inc.Append(res, []float64{1, -2}); err == nil {
		t.Error("negative err: want error")
	}
	if err := inc.Append(nil, nil); err == nil {
		t.Error("nil result: want error")
	}
	if err := inc.Append(res, []float64{1, 0.5}); err != nil {
		t.Errorf("valid append: %v", err)
	}
	// Applying the same generation twice must fail the row-count check.
	if err := inc.Append(res, []float64{1, 0.5}); err == nil {
		t.Error("replayed append: want error")
	}
}

// TestIncrementalErrorBitsAcrossAppends drives the kernel's errorBits through
// every transition an append can make: a 0/1 base extended by 0/1 rows (the
// popcount path, with memo seeds it wrote), then rows containing 0.5 (the
// enumeration path continuing those seeds), then rows of -0.0 (nonzero mask
// unchanged). Every generation must be bit-identical to a batch run over
// the accumulated rows.
func TestIncrementalErrorBitsAcrossAppends(t *testing.T) {
	names := []string{"dev", "os", "region"}
	rng := rand.New(rand.NewSource(23))
	binaryErrs := func(n int) []float64 {
		e := make([]float64, n)
		for i := range e {
			if rng.Intn(3) == 0 {
				e[i] = 1
			}
		}
		return e
	}
	base := randomCatRows(rng, 150, len(names), 3, 0)
	ds, err := frame.FromFrame(catFrameOf(t, names, base), "", 5)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := frame.NewAppender(ds, enc)
	if err != nil {
		t.Fatal(err)
	}
	e := binaryErrs(len(base))
	cfg := Config{K: 4, Sigma: 5, Alpha: 0.9}
	inc, err := NewIncremental(enc, ds.Features, e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	schedule := []struct {
		name   string
		errs   func(n int) []float64
		binary bool
	}{
		{"binary", binaryErrs, true},
		{"binary", binaryErrs, true},
		{"half", func(n int) []float64 {
			e := binaryErrs(n)
			e[n/2] = 0.5
			return e
		}, false},
		{"negzero", func(n int) []float64 {
			e := make([]float64, n)
			for i := range e {
				e[i] = math.Copysign(0, -1)
			}
			return e
		}, false},
	}
	refCfg := cfg
	refCfg.BitsetEval = BitsetOn
	for gen := 0; gen <= len(schedule); gen++ {
		wantBinary := true
		if gen > 0 {
			step := schedule[gen-1]
			res, err := ap.AppendRows(randomCatRows(rng, 40, len(names), 3, 0))
			if err != nil {
				t.Fatal(err)
			}
			errs := step.errs(res.NewRows)
			if err := inc.Append(res, errs); err != nil {
				t.Fatalf("gen %d (%s): Append: %v", gen, step.name, err)
			}
			e = append(e, errs...)
			wantBinary = step.binary
		}
		if inc.memo.errs.binary != wantBinary {
			t.Fatalf("gen %d: errorBits.binary = %v, want %v", gen, inc.memo.errs.binary, wantBinary)
		}
		got, err := inc.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(context.Background(), Input{DS: ap.Dataset(), Enc: ap.Encoding(), E: e}, refCfg)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalResults(t, gen, got, want)
		for i := range got.TopK {
			g, w := got.TopK[i], want.TopK[i]
			if math.Float64bits(g.TotalError) != math.Float64bits(w.TotalError) ||
				math.Float64bits(g.MaxError) != math.Float64bits(w.MaxError) ||
				math.Float64bits(g.Score) != math.Float64bits(w.Score) {
				t.Fatalf("gen %d slice %d: bits differ: %+v vs %+v", gen, i, g, w)
			}
		}
	}
	if inc.Stats().Hits == 0 {
		t.Fatal("no memo hits: the appends never continued a stored seed")
	}
}
