package core

import (
	"errors"
	"math/rand"
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
		cb := matrix.PackColumns(enc.X)
		// The CSR kernel requires a homogeneous candidate list (it counts
		// matched columns against the level), so compare one level at a time.
		for level, cols := range map[int][][]int{1: singles, 2: pairs} {
			nc := len(cols)
			ssB, seB, smB := make([]float64, nc), make([]float64, nc), make([]float64, nc)
			ssC, seC, smC := make([]float64, nc), make([]float64, nc), make([]float64, nc)
			EvalBitsetSerial(cb, e, w, cols, ssB, seB, smB)
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
