package matrix

import (
	"reflect"
	"testing"
)

func TestColSumsAndMaxs(t *testing.T) {
	a := NewDenseData(3, 2, []float64{1, -5, 2, 0, 3, 4})
	if got := ColSums(a); !reflect.DeepEqual(got, []float64{6, -1}) {
		t.Errorf("ColSums = %v, want [6 -1]", got)
	}
	if got := ColMaxs(a); !reflect.DeepEqual(got, []float64{3, 4}) {
		t.Errorf("ColMaxs = %v, want [3 4]", got)
	}
}

func TestRowSumsMaxsIndexMax(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 9, 2, -1, -2, -3})
	if got := RowSums(a); !reflect.DeepEqual(got, []float64{12, -6}) {
		t.Errorf("RowSums = %v, want [12 -6]", got)
	}
	if got := RowMaxs(a); !reflect.DeepEqual(got, []float64{9, -1}) {
		t.Errorf("RowMaxs = %v, want [9 -1]", got)
	}
	if got := RowIndexMax(a); !reflect.DeepEqual(got, []int{1, 0}) {
		t.Errorf("RowIndexMax = %v, want [1 0]", got)
	}
}

func TestRowIndexMaxFirstOccurrence(t *testing.T) {
	a := NewDenseData(1, 4, []float64{2, 7, 7, 1})
	if got := RowIndexMax(a); got[0] != 1 {
		t.Fatalf("RowIndexMax tie = %d, want 1 (first occurrence)", got[0])
	}
}

func TestEmptyAggregates(t *testing.T) {
	a := NewDense(0, 3)
	if got := ColMaxs(a); !reflect.DeepEqual(got, []float64{0, 0, 0}) {
		t.Errorf("ColMaxs of empty = %v, want zeros", got)
	}
	b := NewDense(2, 0)
	if got := RowMaxs(b); !reflect.DeepEqual(got, []float64{0, 0}) {
		t.Errorf("RowMaxs of zero-width = %v, want zeros", got)
	}
}

func TestCumSumCumProd(t *testing.T) {
	if got := CumSum([]float64{1, 2, 3}); !reflect.DeepEqual(got, []float64{1, 3, 6}) {
		t.Errorf("CumSum = %v, want [1 3 6]", got)
	}
	if got := CumSum(nil); len(got) != 0 {
		t.Errorf("CumSum(nil) = %v, want empty", got)
	}
}
