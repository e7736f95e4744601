package core

import (
	"reflect"
	"testing"
)

func TestMergeCols(t *testing.T) {
	cases := []struct {
		a, b []int
		want int
		out  []int
	}{
		{[]int{1, 2}, []int{1, 3}, 3, []int{1, 2, 3}},
		{[]int{1, 2}, []int{3, 4}, 3, nil},   // union 4 > want
		{[]int{1, 2}, []int{1, 2}, 3, nil},   // union 2 < want
		{[]int{0}, []int{5}, 2, []int{0, 5}}, // level-2 join
		{[]int{1, 4, 9}, []int{1, 4, 7}, 4, []int{1, 4, 7, 9}},
	}
	for i, c := range cases {
		got := mergeCols(c.a, c.b, c.want)
		if !reflect.DeepEqual(got, c.out) {
			t.Errorf("case %d: mergeCols(%v,%v,%d) = %v, want %v", i, c.a, c.b, c.want, got, c.out)
		}
	}
}

func TestEncodeColsUniqueAndEqual(t *testing.T) {
	a := encodeCols([]int{1, 2, 3})
	b := encodeCols([]int{1, 2, 3})
	c := encodeCols([]int{1, 2, 4})
	d := encodeCols([]int{1, 2})
	if a != b {
		t.Error("equal column lists must encode equally")
	}
	if a == c || a == d {
		t.Error("different column lists must encode differently")
	}
	// Large column ids must not collide (the paper's overflow concern).
	x := encodeCols([]int{1 << 20, 1 << 24})
	y := encodeCols([]int{1 << 20, 1<<24 + 1})
	if x == y {
		t.Error("large ids collide")
	}
}

func TestFeaturesDisjoint(t *testing.T) {
	st := &state{featOf: []int{0, 0, 1, 1, 2}}
	if !st.featuresDisjoint([]int{0, 2, 4}) {
		t.Error("columns of distinct features reported as clashing")
	}
	if st.featuresDisjoint([]int{0, 1}) {
		t.Error("two columns of feature 0 reported disjoint")
	}
	if st.featuresDisjoint([]int{2, 3, 4}) {
		t.Error("columns 2,3 share feature 1")
	}
}

func TestLessCols(t *testing.T) {
	if !lessCols([]int{1, 2}, []int{1, 3}) {
		t.Error("lexicographic comparison failed")
	}
	if !lessCols([]int{1}, []int{1, 0}) {
		t.Error("prefix must compare smaller")
	}
	if lessCols([]int{2}, []int{1, 5}) {
		t.Error("ordering inverted")
	}
}
