package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCSRFromTriplesBasic(t *testing.T) {
	m := CSRFromTriples(3, 3, []Triple{
		{Row: 0, Col: 1, Val: 2},
		{Row: 2, Col: 0, Val: 5},
		{Row: 0, Col: 0, Val: 1},
	})
	want := NewDenseData(3, 3, []float64{1, 2, 0, 0, 0, 0, 5, 0, 0})
	if !m.ToDense().Equal(want) {
		t.Fatalf("CSRFromTriples = %v, want %v", m.ToDense(), want)
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
}

func TestCSRFromTriplesSumsDuplicates(t *testing.T) {
	// table(rix, cix) semantics: duplicates accumulate.
	m := CSRFromTriples(2, 2, []Triple{
		{Row: 1, Col: 1, Val: 1},
		{Row: 1, Col: 1, Val: 1},
		{Row: 1, Col: 1, Val: 1},
	})
	if got := m.At(1, 1); got != 3 {
		t.Fatalf("At(1,1) = %v, want 3", got)
	}
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 after merging", m.NNZ())
	}
}

func TestCSRFromTriplesOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CSRFromTriples(2, 2, []Triple{{Row: 2, Col: 0, Val: 1}})
}

func TestCSRRoundTripDense(t *testing.T) {
	d := NewDenseData(3, 4, []float64{
		0, 1, 0, 2,
		0, 0, 0, 0,
		3, 0, 4, 0,
	})
	m := CSRFromDense(d)
	if !m.ToDense().Equal(d) {
		t.Fatalf("round trip = %v, want %v", m.ToDense(), d)
	}
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4", m.NNZ())
	}
}

func TestCSRAt(t *testing.T) {
	m := CSRFromTriples(2, 5, []Triple{
		{Row: 0, Col: 4, Val: 9},
		{Row: 0, Col: 1, Val: 3},
	})
	if got := m.At(0, 1); got != 3 {
		t.Errorf("At(0,1) = %v, want 3", got)
	}
	if got := m.At(0, 2); got != 0 {
		t.Errorf("At(0,2) = %v, want 0", got)
	}
	if got := m.At(1, 4); got != 0 {
		t.Errorf("At(1,4) = %v, want 0", got)
	}
}

func randomCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	var ts []Triple
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				ts = append(ts, Triple{Row: i, Col: j, Val: float64(rng.Intn(9) + 1)})
			}
		}
	}
	return CSRFromTriples(rows, cols, ts)
}

func TestCSRTransposeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		m := randomCSR(rng, 1+rng.Intn(10), 1+rng.Intn(10), 0.3)
		if !m.T().ToDense().Equal(m.ToDense().T()) {
			t.Fatalf("trial %d: CSR transpose disagrees with dense transpose", trial)
		}
	}
}

func TestCSRTransposeInvolution(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(2))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(rng, 1+rng.Intn(8), 1+rng.Intn(8), 0.4)
		return m.T().T().Equal(m)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCSRSelectRows(t *testing.T) {
	m := CSRFromDense(NewDenseData(3, 2, []float64{1, 0, 0, 2, 3, 4}))
	got := m.SelectRows([]int{2, 2, 0})
	want := NewDenseData(3, 2, []float64{3, 4, 3, 4, 1, 0})
	if !got.ToDense().Equal(want) {
		t.Fatalf("SelectRows = %v, want %v", got.ToDense(), want)
	}
}

func TestCSRCloneIndependent(t *testing.T) {
	a := CSRFromDense(NewDenseData(1, 2, []float64{1, 2}))
	c := a.Clone()
	c.val[0] = 99
	if a.val[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestCSRRowEntriesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		m := randomCSR(rng, 6, 12, 0.5)
		for i := 0; i < m.Rows(); i++ {
			cols, _ := m.RowEntries(i)
			for k := 1; k < len(cols); k++ {
				if cols[k-1] >= cols[k] {
					t.Fatalf("trial %d row %d: columns not strictly increasing: %v", trial, i, cols)
				}
			}
		}
	}
}

func TestCSREmptyShapes(t *testing.T) {
	m := CSRFromTriples(0, 5, nil)
	if m.Rows() != 0 || m.NNZ() != 0 {
		t.Fatal("empty matrix invariants violated")
	}
	tr := m.T()
	if tr.Rows() != 5 || tr.Cols() != 0 {
		t.Fatalf("transpose of 0x5 = %dx%d, want 5x0", tr.Rows(), tr.Cols())
	}
}
