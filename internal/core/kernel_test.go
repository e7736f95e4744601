package core

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"sliceline/internal/fptol"
	"sliceline/internal/frame"
	"sliceline/internal/matrix"
)

func TestParseBitsetModeRoundTrip(t *testing.T) {
	for _, m := range []BitsetMode{BitsetAuto, BitsetOn, BitsetOff} {
		got, err := ParseBitsetMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseBitsetMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if got, err := ParseBitsetMode(""); err != nil || got != BitsetAuto {
		t.Errorf("empty mode = %v, %v; want BitsetAuto", got, err)
	}
	if _, err := ParseBitsetMode("sometimes"); err == nil {
		t.Error("ParseBitsetMode accepted an unknown spelling")
	}
	if s := BitsetMode(42).String(); s != "BitsetMode(42)" {
		t.Errorf("out-of-domain String() = %q", s)
	}
}

func TestValidateRejectsBadBitsetMode(t *testing.T) {
	cfg := Config{K: 1, Sigma: 1, Alpha: 0.5, BitsetEval: BitsetMode(-1)}
	if err := cfg.Validate(); !errors.Is(err, ErrBadBitsetMode) {
		t.Fatalf("Validate() = %v, want ErrBadBitsetMode", err)
	}
	cfg.BitsetEval = BitsetOn
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate() with BitsetOn = %v", err)
	}
}

// TestKernelModeSelection pins the mode override and the auto heuristic:
// forced modes ignore density, auto follows the 1/64 column-density
// break-even of bitsetProfitable.
func TestKernelModeSelection(t *testing.T) {
	// Dense one-hot block: every row has a 1 in each of 2 columns ->
	// density 1/2, far above 1/64.
	var dense []matrix.Triple
	for i := 0; i < 128; i++ {
		dense = append(dense, matrix.Triple{Row: i, Col: 0, Val: 1}, matrix.Triple{Row: i, Col: 1, Val: 1})
	}
	xDense := matrix.CSRFromTriples(128, 2, dense)
	// Ultra-sparse block: one stored entry in a 128x128 matrix ->
	// density 1/16384, far below 1/64.
	xSparse := matrix.CSRFromTriples(128, 128, []matrix.Triple{{Row: 0, Col: 0, Val: 1}})

	e := make([]float64, 128)
	for _, tc := range []struct {
		name string
		x    *matrix.CSR
		mode BitsetMode
		want bool
	}{
		{"auto dense", xDense, BitsetAuto, true},
		{"auto sparse", xSparse, BitsetAuto, false},
		{"forced on sparse", xSparse, BitsetOn, true},
		{"forced off dense", xDense, BitsetOff, false},
	} {
		k := NewKernel(tc.x, e, nil, tc.mode)
		if k.UsesBitset() != tc.want {
			t.Errorf("%s: UsesBitset() = %v, want %v", tc.name, k.UsesBitset(), tc.want)
		}
		wantBackend := "fused"
		if tc.want {
			wantBackend = "bitset"
		}
		if k.Backend() != wantBackend {
			t.Errorf("%s: Backend() = %q, want %q", tc.name, k.Backend(), wantBackend)
		}
	}
}

func TestBitsetProfitableDegenerate(t *testing.T) {
	if bitsetProfitable(matrix.CSRFromTriples(0, 4, nil)) {
		t.Error("zero-row matrix reported profitable")
	}
	if bitsetProfitable(matrix.CSRFromTriples(4, 0, nil)) {
		t.Error("zero-column matrix reported profitable")
	}
}

// TestBitsetKernelMatchesCSR: the packed-bitset kernel and the fused CSR
// kernel compute the same slice statistics on identical inputs — sizes and
// maxima bit-for-bit, error sums within the repository summation tolerance
// (the two kernels add matching rows in the same ascending order but the CSR
// path accumulates through block partials).
func TestBitsetKernelMatchesCSR(t *testing.T) {
	// The row-parallel CSR merge reorders the float sums; serial CSR adds in
	// the bitset kernel's order.
	defer matrix.SetMaxWorkers(matrix.SetMaxWorkers(1))
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 5; trial++ {
		n := 100 + rng.Intn(400)
		ds, e := randomDataset(rng, n, 4+rng.Intn(3), 4)
		enc, err := frame.OneHot(ds)
		if err != nil {
			t.Fatal(err)
		}
		var w []float64
		if trial%2 == 1 {
			w = make([]float64, n)
			for i := range w {
				w[i] = 0.5 + rng.Float64()*2
			}
		}
		var singles, pairs [][]int
		for c1 := 0; c1 < enc.Width(); c1++ {
			singles = append(singles, []int{c1})
			for c2 := c1 + 1; c2 < enc.Width(); c2++ {
				if enc.FeatureOf(c1) != enc.FeatureOf(c2) {
					pairs = append(pairs, []int{c1, c2})
				}
			}
		}
		kern := NewKernel(enc.X, e, w, BitsetOn)
		// The CSR kernel requires a homogeneous candidate list (it counts
		// matched columns against the level), so compare one level at a time.
		for level, cols := range map[int][][]int{1: singles, 2: pairs} {
			nc := len(cols)
			ssB, seB, smB := make([]float64, nc), make([]float64, nc), make([]float64, nc)
			ssC, seC, smC := make([]float64, nc), make([]float64, nc), make([]float64, nc)
			kern.EvalBitsetSerial(cols, ssB, seB, smB)
			EvalPartitionWeighted(enc.X, e, w, cols, level, 16, ssC, seC, smC)
			for j := 0; j < nc; j++ {
				if ssB[j] != ssC[j] {
					t.Fatalf("trial %d L%d cand %v: size %v (bitset) vs %v (csr)", trial, level, cols[j], ssB[j], ssC[j])
				}
				if smB[j] != smC[j] {
					t.Fatalf("trial %d L%d cand %v: max %v (bitset) vs %v (csr)", trial, level, cols[j], smB[j], smC[j])
				}
				if !fptol.DefaultTol.Close(seB[j], seC[j]) {
					t.Fatalf("trial %d L%d cand %v: error sum %v (bitset) vs %v (csr)", trial, level, cols[j], seB[j], seC[j])
				}
			}
		}
	}
}

// TestKernelPacksOnce: the packed representation is built lazily and shared
// across Eval calls — repeated Bits() returns the same backing object.
func TestKernelPacksOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds, e := randomDataset(rng, 200, 4, 3)
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernel(enc.X, e, nil, BitsetOn)
	if k.Bits() != k.Bits() {
		t.Fatal("Bits() repacked on second call")
	}
	if k.Rows() != 200 {
		t.Fatalf("Rows() = %d", k.Rows())
	}
}

// oracleEvalBitsetFrom is the bitset kernel before it learned about the
// error vector: one word loop that popcounts sizes into a float per word and
// enumerates every matching row with TrailingZeros64, adding its error
// whether or not it is zero. evalBitsetFrom must return exactly its bits.
func oracleEvalBitsetFrom(cb *matrix.ColumnBits, e, w []float64, cand []int, from int, seedSS, seedSE, seedSM float64) (float64, float64, float64) {
	sumS, sumE, maxE := seedSS, seedSE, seedSM
	nc := len(cand)
	if nc == 0 || from >= cb.Rows() {
		return sumS, sumE, maxE
	}
	words := cb.Words()
	a := cb.Col(cand[0])
	var b, c []uint64
	if nc > 1 {
		b = cb.Col(cand[1])
	}
	if nc > 2 {
		c = cb.Col(cand[2])
	}
	k := from >> 6
	m := a[k] & (^uint64(0) << uint(from&63))
	for {
		if m != 0 && b != nil {
			m &= b[k]
			if c != nil && m != 0 {
				m &= c[k]
				for j := 3; j < nc && m != 0; j++ {
					m &= cb.Col(cand[j])[k]
				}
			}
		}
		if m != 0 {
			base := k << 6
			if w == nil {
				sumS += float64(bits.OnesCount64(m))
				for t := m; t != 0; t &= t - 1 {
					ei := e[base+bits.TrailingZeros64(t)]
					sumE += ei
					if ei > maxE {
						maxE = ei
					}
				}
			} else {
				for t := m; t != 0; t &= t - 1 {
					i := base + bits.TrailingZeros64(t)
					wi := w[i]
					ei := e[i]
					sumS += wi
					sumE += wi * ei
					if wi > 0 && ei > maxE {
						maxE = ei
					}
				}
			}
		}
		if k++; k == words {
			return sumS, sumE, maxE
		}
		m = a[k]
	}
}

// errorClasses are the error vectors the kernel distinguishes: no nonzero
// error at all, classifier 0/1 errors (with and without -0.0), 0/1 errors
// with a single 0.5 that must leave the popcount path, and real errors with
// and without exact zeros.
var errorClasses = []string{"zero", "binary", "binary-negzero", "binary-half", "real-zeros", "real"}

// kernelFixture builds an n-row, 8-column 0/1 matrix of density ~0.7 (dense
// enough that conjunctions of 5 columns still match rows), an error vector
// of the given class and, when weighted, row weights that include zeros.
func kernelFixture(rng *rand.Rand, n int, class string, weighted bool) (*matrix.ColumnBits, []float64, []float64) {
	const cols = 8
	var ts []matrix.Triple
	for i := 0; i < n; i++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < 0.7 {
				ts = append(ts, matrix.Triple{Row: i, Col: c, Val: 1})
			}
		}
	}
	e := make([]float64, n)
	for i := range e {
		r := rng.Float64()
		switch class {
		case "binary", "binary-half":
			if r < 0.4 {
				e[i] = 1
			}
		case "binary-negzero":
			switch {
			case r < 0.4:
				e[i] = 1
			case r < 0.7:
				e[i] = math.Copysign(0, -1)
			}
		case "real-zeros":
			if r > 0.3 {
				e[i] = rng.Float64()
			}
		case "real":
			e[i] = 0.001 + rng.Float64()
		}
	}
	if class == "binary-half" {
		e[rng.Intn(n)] = 0.5
	}
	var w []float64
	if weighted {
		w = make([]float64, n)
		for i := range w {
			if rng.Float64() < 0.8 {
				w[i] = 0.5 + 2*rng.Float64()
			}
		}
	}
	return matrix.PackColumns(matrix.CSRFromTriples(n, cols, ts)), e, w
}

// randomCand draws a sorted conjunction of L distinct columns of cb.
func randomCand(rng *rand.Rand, cb *matrix.ColumnBits, L int) []int {
	cand := rng.Perm(cb.Cols())[:L]
	sort.Ints(cand)
	return cand
}

// checkEvalBitsetFrom asserts that evalBitsetFrom returns the oracle's exact
// bits for one candidate scanned from row from, under three seeds: zero, the
// oracle's own statistics of rows [0, from) (an incremental continuation),
// and that prefix plus a fixed nonzero offset. The errorBits are built
// twice: packed whole, and packed over a prefix then extended by appends.
func checkEvalBitsetFrom(t *testing.T, rng *rand.Rand, cb *matrix.ColumnBits, e, w []float64, cand []int, from int) {
	t.Helper()
	split := rng.Intn(len(e) + 1)
	grown := packErrors(e[:split])
	grown.extend(e[:split+(len(e)-split)/2], split)
	grown.extend(e, split+(len(e)-split)/2)
	whole := packErrors(e)
	pS, pE, pM := prefixStats(cb, e, w, cand, from)
	seeds := [][3]float64{{0, 0, 0}, {pS, pE, pM}, {pS + 7, pE + 3, pM + 0.25}}
	for _, eb := range []*errorBits{&whole, &grown} {
		for _, sd := range seeds {
			wS, wE, wM := oracleEvalBitsetFrom(cb, e, w, cand, from, sd[0], sd[1], sd[2])
			gS, gE, gM := evalBitsetFrom(cb, eb, e, w, cand, from, sd[0], sd[1], sd[2])
			if math.Float64bits(gS) != math.Float64bits(wS) || math.Float64bits(gE) != math.Float64bits(wE) || math.Float64bits(gM) != math.Float64bits(wM) {
				t.Fatalf("n=%d cand=%v from=%d seed=%v weighted=%v binary=%v: got (%v, %v, %v), oracle (%v, %v, %v)",
					len(e), cand, from, sd, w != nil, eb.binary, gS, gE, gM, wS, wE, wM)
			}
		}
	}
}

// prefixStats returns the statistics of rows [0, from) of one candidate,
// added row by row in ascending order: the seeds an incremental run stores
// after a generation of from rows.
func prefixStats(cb *matrix.ColumnBits, e, w []float64, cand []int, from int) (ss, se, sm float64) {
	for i := 0; i < from; i++ {
		in := true
		for _, c := range cand {
			in = in && cb.Col(c)[i>>6]&(1<<uint(i&63)) != 0
		}
		if !in {
			continue
		}
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		ss += wi
		se += wi * e[i]
		if wi > 0 && e[i] > sm {
			sm = e[i]
		}
	}
	return ss, se, sm
}

// TestEvalBitsetFromMatchesOracle pins the error-aware kernel to the
// oracle's exact bits over every error class, unit and zero-including
// weights, conjunctions of 1 to 5 columns, row counts around the word
// boundary and with a ragged tail, and scans that start at the first row,
// inside the first word, on a word boundary, mid-word and at the last row.
func TestEvalBitsetFromMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 63, 64, 65, 2011} {
		for _, class := range errorClasses {
			for _, weighted := range []bool{false, true} {
				cb, e, w := kernelFixture(rng, n, class, weighted)
				for L := 1; L <= 5; L++ {
					cand := randomCand(rng, cb, L)
					for _, from := range []int{0, 1, 63, 64, n / 2, n - 1} {
						if from >= 0 && from < n {
							checkEvalBitsetFrom(t, rng, cb, e, w, cand, from)
						}
					}
				}
			}
		}
	}
}

// FuzzEvalBitsetFrom checks the same bit-exactness property on fuzzed row
// counts, scan starts, error classes, weights and conjunction widths.
func FuzzEvalBitsetFrom(f *testing.F) {
	f.Add(int64(1), uint16(65), uint16(1), uint8(1), false, uint8(3))
	f.Add(int64(2), uint16(2011), uint16(1000), uint8(4), true, uint8(5))
	f.Add(int64(3), uint16(64), uint16(63), uint8(2), false, uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n16, from16 uint16, class8 uint8, weighted bool, l8 uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(n16)%3000
		cb, e, w := kernelFixture(rng, n, errorClasses[int(class8)%len(errorClasses)], weighted)
		cand := randomCand(rng, cb, 1+int(l8)%5)
		checkEvalBitsetFrom(t, rng, cb, e, w, cand, int(from16)%n)
	})
}
