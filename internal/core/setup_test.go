package core

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"sliceline/internal/frame"
	"sliceline/internal/matrix"
)

// oracleSetup is the setup of Algorithm 1 lines 1–12 as the paper writes it,
// over a materialized one-hot matrix: colSums(X) and eᵀX over all l columns
// (sparse row-order sums that skip zero multipliers), the per-column max
// error, the valid columns cI, and X[, cI] by a column-map copy of every
// row.
func oracleSetup(enc *frame.Encoding, e, w []float64, cfg Config) (ss, se, sm []float64, cI []int, x *matrix.CSR) {
	l := enc.Width()
	ss, se, sm = make([]float64, l), make([]float64, l), make([]float64, l)
	colSums := func(out, v []float64) {
		for i := 0; i < enc.X.Rows(); i++ {
			vi := 1.0
			if v != nil {
				if vi = v[i]; vi == 0 {
					continue
				}
			}
			cols, vals := enc.X.RowEntries(i)
			for k, c := range cols {
				out[c] += vi * vals[k]
			}
		}
	}
	if w == nil {
		colSums(ss, nil)
		colSums(se, e)
	} else {
		we := make([]float64, len(e))
		for i := range we {
			we[i] = w[i] * e[i]
		}
		colSums(ss, w)
		colSums(se, we)
	}
	for i := range e {
		if w != nil && w[i] == 0 {
			continue
		}
		cols, _ := enc.X.RowEntries(i)
		for _, c := range cols {
			sm[c] = math.Max(sm[c], e[i])
		}
	}
	minSS := float64(cfg.Sigma)
	if cfg.DisableSizePruning {
		minSS = 1
	}
	newCol := map[int]int{}
	for c := 0; c < l; c++ {
		if ss[c] >= minSS && se[c] > 0 {
			newCol[c] = len(cI)
			cI = append(cI, c)
		}
	}
	rowPtr := []int{0}
	var colIdx []int
	var val []float64
	for i := 0; i < enc.X.Rows(); i++ {
		cols, vals := enc.X.RowEntries(i)
		for k, c := range cols {
			if nc, ok := newCol[c]; ok {
				colIdx = append(colIdx, nc)
				val = append(val, vals[k])
			}
		}
		rowPtr = append(rowPtr, len(colIdx))
	}
	return ss, se, sm, cI, matrix.NewCSR(enc.X.Rows(), len(cI), rowPtr, colIdx, val)
}

// requireSetupMatchesOracle runs the rows path (columnStats, validColumns,
// project) on ds and requires every output to equal oracleSetup over enc,
// bit for bit.
func requireSetupMatchesOracle(t *testing.T, name string, ds *frame.Dataset, enc *frame.Encoding, e, w []float64, cfg Config) {
	t.Helper()
	if err := ds.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	beg, l := oneHotOffsets(ds.Features)
	if !slices.Equal(beg, enc.Beg) || l != enc.Width() {
		t.Fatalf("%s: offsets %v (width %d), encoding has %v (width %d)", name, beg, l, enc.Beg, enc.Width())
	}
	cs := columnStats(ds, beg, l, e, w)
	cI := validColumns(cs, cfg)
	x := project(ds, beg, cs, cI)

	ss, se, sm, wantCI, wantX := oracleSetup(enc, e, w, cfg)
	for c := range cs {
		for _, f := range []struct {
			stat      string
			got, want float64
		}{{"ss", cs[c].ss, ss[c]}, {"se", cs[c].se, se[c]}, {"sm", cs[c].sm, sm[c]}} {
			if math.Float64bits(f.got) != math.Float64bits(f.want) {
				t.Fatalf("%s: column %d: %s = %v (%#x), oracle %v (%#x)",
					name, c, f.stat, f.got, math.Float64bits(f.got), f.want, math.Float64bits(f.want))
			}
		}
	}
	if !slices.Equal(cI, wantCI) {
		t.Fatalf("%s: cI = %v, oracle %v", name, cI, wantCI)
	}
	if x.Rows() != wantX.Rows() || x.Cols() != wantX.Cols() {
		t.Fatalf("%s: X[,cI] is %d×%d, oracle %d×%d", name, x.Rows(), x.Cols(), wantX.Rows(), wantX.Cols())
	}
	rp, ci, v := x.Components()
	wrp, wci, wv := wantX.Components()
	if !slices.Equal(rp, wrp) || !slices.Equal(ci, wci) || !slices.Equal(v, wv) {
		t.Fatalf("%s: X[,cI] components differ from the oracle", name)
	}
	if cap(ci) != len(ci) || cap(v) != len(v) {
		t.Fatalf("%s: projection buffers not presized: len %d cap %d / %d", name, len(ci), cap(ci), cap(v))
	}
}

// randomWeights draws weights with about a quarter exact zeros.
func randomWeights(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		if rng.Intn(4) != 0 {
			w[i] = float64(1+rng.Intn(4)) * rng.Float64()
		}
	}
	w[rng.Intn(n)] = 1 // a positive total
	return w
}

// TestSetupMatchesOneHotOracle: the rows path equals the materialized
// one-hot setup bit for bit, across random datasets, weights with zeros,
// DisableSizePruning, a σ that drops every column, and n = 1.
func TestSetupMatchesOneHotOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(300)
		if trial < 4 {
			n = 1
		}
		ds, e := randomDataset(rng, n, 1+rng.Intn(6), 2+rng.Intn(12))
		enc, err := frame.OneHot(ds)
		if err != nil {
			t.Fatal(err)
		}
		sigma := 1 + rng.Intn(8)
		cfgs := map[string]Config{
			"sigma":          {Sigma: sigma},
			"no size prune":  {Sigma: sigma, DisableSizePruning: true},
			"drop every col": {Sigma: n + 1},
		}
		for cname, cfg := range cfgs {
			requireSetupMatchesOracle(t, cname, ds, enc, e, nil, cfg)
			requireSetupMatchesOracle(t, cname+" weighted", ds, enc, e, randomWeights(rng, n), cfg)
		}
		_, _, _, cI, _ := oracleSetup(enc, e, nil, cfgs["drop every col"])
		if len(cI) != 0 {
			t.Fatalf("trial %d: σ = n+1 kept %d columns", trial, len(cI))
		}
	}
}

// TestSetupMatchesOneHotOracleAcrossAppends: every frame.Appender
// generation, domain growth included, yields the same setup from its rows as
// from the Appender's own encoding.
func TestSetupMatchesOneHotOracleAcrossAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	names := []string{"dev", "os", "region"}
	base := randomCatRows(rng, 50, len(names), 3, 0)
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
	grown := 0
	for gen := 0; gen <= 5; gen++ {
		if gen > 0 {
			res, err := ap.AppendRows(randomCatRows(rng, 5+rng.Intn(10), len(names), 3, gen))
			if err != nil {
				t.Fatal(err)
			}
			if res.ColRemap != nil {
				grown++
			}
			e = append(e, randomErrs(rng, res.NewRows)...)
		}
		cfg := Config{Sigma: 4}
		requireSetupMatchesOracle(t, "append", ap.Dataset(), ap.Encoding(), e, nil, cfg)
		requireSetupMatchesOracle(t, "append weighted", ap.Dataset(), ap.Encoding(), e, randomWeights(rng, len(e)), cfg)
	}
	if grown == 0 {
		t.Fatal("no append grew a domain; the test is too weak")
	}
}

// goldenSigData is a fixed dataset (an LCG fills X0) with a planted
// high-error region, an error vector and weights with exact zeros.
func goldenSigData() (*frame.Dataset, []float64, []float64) {
	feats := []frame.Feature{{Name: "a", Domain: 3}, {Name: "b", Domain: 5}, {Name: "c", Domain: 2}, {Name: "d", Domain: 4}}
	n := 60
	ds := &frame.Dataset{Name: "golden", X0: frame.NewIntMatrix(n, len(feats)), Features: feats}
	e := make([]float64, n)
	w := make([]float64, n)
	x := uint32(7)
	for i := 0; i < n; i++ {
		for j, f := range feats {
			x = x*1664525 + 1013904223
			ds.X0.Set(i, j, 1+int(x>>16)%f.Domain)
		}
		e[i] = float64((i*5)%7) / 8
		if ds.X0.At(i, 0) == 1 && ds.X0.At(i, 1) <= 3 {
			e[i] += 2
		}
		w[i] = float64(i%3) / 2
	}
	return ds, e, w
}

// TestSignatureGolden pins DataSignature and Signature to the values they had
// when computed over a materialized one-hot CSR: checkpoints, the server's
// journal and its cache keys stored before keep matching.
func TestSignatureGolden(t *testing.T) {
	ds, e, w := goldenSigData()
	cfg := Config{K: 4, Sigma: 3, Alpha: 0.9}.WithDefaults(ds.NumRows())
	for _, tc := range []struct {
		name      string
		got, want uint64
	}{
		{"unweighted data", DataSignature(ds, e, nil), 0x1f41a8bd327f9e6c},
		{"weighted data", DataSignature(ds, e, w), 0x9db56d726b1c12d0},
		{"unweighted run", Signature(ds, e, nil, cfg), 0x34b8fffc01c72e81},
		{"weighted run", Signature(ds, e, w, cfg), 0x0b4cd52dcd4fe3b3},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: signature %#016x, want %#016x", tc.name, tc.got, tc.want)
		}
	}
}

// TestResumeGoldenCheckpoint resumes from checkpoints that a MaxLevel = 2 run
// over goldenSigData wrote when run still one-hot encoded its input
// (testdata/golden_*_l2.ck). The resumed full-depth run must start at level
// 3 and equal an uninterrupted run.
func TestResumeGoldenCheckpoint(t *testing.T) {
	ds, e, w := goldenSigData()
	for _, tc := range []struct {
		file string
		w    []float64
	}{{"golden_unweighted_l2.ck", nil}, {"golden_weighted_l2.ck", w}} {
		data, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), tc.file)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		base := Config{K: 4, Sigma: 3, Alpha: 0.9}
		want, err := Run(context.Background(), Input{DS: ds, E: e, W: tc.w}, base)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.CheckpointPath, cfg.Resume = path, true
		var fired []int
		cfg.OnLevel = func(ls LevelStats) { fired = append(fired, ls.Level) }
		got, err := Run(context.Background(), Input{DS: ds, E: e, W: tc.w}, cfg)
		if err != nil {
			t.Fatalf("%s: resume: %v", tc.file, err)
		}
		if len(fired) == 0 || fired[0] != 3 {
			t.Fatalf("%s: resumed run reported levels %v, want a start at 3", tc.file, fired)
		}
		if len(got.TopK) == 0 || !reflect.DeepEqual(got.TopK, want.TopK) {
			t.Fatalf("%s: resumed top-K %+v, want %+v", tc.file, got.TopK, want.TopK)
		}
		if !reflect.DeepEqual(stripElapsed(got.Levels), stripElapsed(want.Levels)) {
			t.Fatalf("%s: resumed levels %+v, want %+v", tc.file, stripElapsed(got.Levels), stripElapsed(want.Levels))
		}
	}
}
