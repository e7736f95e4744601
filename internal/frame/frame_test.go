package frame

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRecode(t *testing.T) {
	codes, labels := Recode([]string{"b", "a", "b", "c", "a"})
	if !reflect.DeepEqual(codes, []int{1, 2, 1, 3, 2}) {
		t.Errorf("codes = %v, want [1 2 1 3 2]", codes)
	}
	if !reflect.DeepEqual(labels, []string{"b", "a", "c"}) {
		t.Errorf("labels = %v, want [b a c]", labels)
	}
}

func TestRecodeEmpty(t *testing.T) {
	codes, labels := Recode(nil)
	if len(codes) != 0 || len(labels) != 0 {
		t.Fatalf("Recode(nil) = %v, %v", codes, labels)
	}
}

func TestRecodeRoundTripProperty(t *testing.T) {
	f := func(vals []string) bool {
		codes, labels := Recode(vals)
		for i, c := range codes {
			if labels[c-1] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBinEquiWidth(t *testing.T) {
	codes, edges := BinEquiWidth([]float64{0, 2.5, 5, 7.5, 10}, 4)
	if !reflect.DeepEqual(codes, []int{1, 2, 3, 4, 4}) {
		t.Errorf("codes = %v, want [1 2 3 4 4]", codes)
	}
	if edges[0] != 0 || edges[4] != 10 {
		t.Errorf("edges = %v, want boundaries 0 and 10", edges)
	}
}

func TestBinEquiWidthConstantColumn(t *testing.T) {
	codes, _ := BinEquiWidth([]float64{3, 3, 3}, 10)
	if !reflect.DeepEqual(codes, []int{1, 1, 1}) {
		t.Fatalf("codes = %v, want all 1", codes)
	}
}

func TestBinEquiWidthNaN(t *testing.T) {
	codes, _ := BinEquiWidth([]float64{1, math.NaN(), 2}, 2)
	if codes[1] != 3 {
		t.Fatalf("NaN code = %d, want 3 (missing bin)", codes[1])
	}
}

func TestBinEquiWidthCodesInRangeProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 100
		}
		bins := 1 + rng.Intn(10)
		codes, _ := BinEquiWidth(vals, bins)
		for _, c := range codes {
			if c < 1 || c > bins {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestNewFrameRejectsRagged(t *testing.T) {
	_, err := NewFrame([]Column{
		{Name: "a", Kind: Numeric, Floats: []float64{1, 2}},
		{Name: "b", Kind: Categorical, Strings: []string{"x"}},
	})
	if err == nil {
		t.Fatal("expected error for ragged columns")
	}
}

func testFrame(t *testing.T) *Frame {
	t.Helper()
	f, err := NewFrame([]Column{
		{Name: "color", Kind: Categorical, Strings: []string{"r", "g", "r", "b"}},
		{Name: "size", Kind: Numeric, Floats: []float64{1, 2, 3, 4}},
		{Name: "id", Kind: Numeric, Floats: []float64{100, 101, 102, 103}},
		{Name: "y", Kind: Numeric, Floats: []float64{0, 1, 0, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFromFrame(t *testing.T) {
	ds, err := FromFrame(testFrame(t), "y", 2, "id")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.NumFeatures() != 2 {
		t.Fatalf("features = %d, want 2 (id dropped, y is label)", ds.NumFeatures())
	}
	if !reflect.DeepEqual(ds.Y, []float64{0, 1, 0, 1}) {
		t.Errorf("Y = %v", ds.Y)
	}
	if ds.Features[0].Domain != 3 {
		t.Errorf("color domain = %d, want 3", ds.Features[0].Domain)
	}
	if ds.Features[1].Domain != 2 {
		t.Errorf("size domain = %d, want 2", ds.Features[1].Domain)
	}
	if got := ds.OneHotWidth(); got != 5 {
		t.Errorf("OneHotWidth = %d, want 5", got)
	}
}

func TestFromFrameMissingLabel(t *testing.T) {
	if _, err := FromFrame(testFrame(t), "nope", 2); err == nil {
		t.Fatal("expected error for missing label column")
	}
}

func TestFromFrameCategoricalLabelRejected(t *testing.T) {
	if _, err := FromFrame(testFrame(t), "color", 2); err == nil {
		t.Fatal("expected error for categorical label")
	}
}

func TestDatasetValidateRejectsBadCodes(t *testing.T) {
	ds := &Dataset{
		Name:     "bad",
		X0:       &IntMatrix{Rows: 1, Cols: 1, Data: []int{5}},
		Features: []Feature{{Name: "f", Domain: 3}},
	}
	if err := ds.Validate(); err == nil {
		t.Fatal("expected error for out-of-range code")
	}
	ds.X0.Data[0] = 0
	if err := ds.Validate(); err == nil {
		t.Fatal("expected error for zero code")
	}
}

// TestDatasetValidateReportsFirstBadFeature: Validate scans rows, but with
// several violations it still reports the first bad feature and, within it,
// the first bad row, in the same words as a feature-by-feature scan.
func TestDatasetValidateReportsFirstBadFeature(t *testing.T) {
	newDS := func() *Dataset {
		ds := &Dataset{
			Name: "multi",
			X0:   NewIntMatrix(6, 4),
			Features: []Feature{
				{Name: "a", Domain: 2}, {Name: "b", Domain: 3},
				{Name: "c", Domain: 4}, {Name: "d", Domain: 5},
			},
		}
		for i := 0; i < 6; i++ {
			for j := 0; j < 4; j++ {
				ds.X0.Set(i, j, 1+(i+j)%2)
			}
		}
		return ds
	}
	cases := []struct {
		name string
		edit func(ds *Dataset)
		want string
	}{
		{
			// Row-major order meets (1, d) and (2, c) before (4, b).
			name: "bad codes in several rows and features",
			edit: func(ds *Dataset) {
				ds.X0.Set(1, 3, 9)
				ds.X0.Set(2, 2, 0)
				ds.X0.Set(4, 1, 7)
				ds.X0.Set(5, 1, -1)
			},
			want: `dataset multi: code 7 out of range [1,3] at row 4 feature "b"`,
		},
		{
			name: "one code just past its domain",
			edit: func(ds *Dataset) { ds.X0.Set(5, 3, 6) },
			want: `dataset multi: code 6 out of range [1,5] at row 5 feature "d"`,
		},
		{
			name: "bad code before a zero domain",
			edit: func(ds *Dataset) {
				ds.X0.Set(3, 1, 4)
				ds.Features[2].Domain = 0
			},
			want: `dataset multi: code 4 out of range [1,3] at row 3 feature "b"`,
		},
		{
			name: "zero domain before a bad code",
			edit: func(ds *Dataset) {
				ds.Features[1].Domain = 0
				ds.X0.Set(0, 3, 6)
			},
			want: `dataset multi: feature "b" has domain 0`,
		},
	}
	for _, tc := range cases {
		ds := newDS()
		if err := ds.Validate(); err != nil {
			t.Fatalf("%s: clean dataset rejected: %v", tc.name, err)
		}
		tc.edit(ds)
		err := ds.Validate()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestReplicateRows(t *testing.T) {
	ds, err := FromFrame(testFrame(t), "y", 2, "id")
	if err != nil {
		t.Fatal(err)
	}
	r := ds.ReplicateRows(3)
	if r.NumRows() != 12 || len(r.Y) != 12 {
		t.Fatalf("replicated rows = %d labels = %d, want 12/12", r.NumRows(), len(r.Y))
	}
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < 4; i++ {
			if !reflect.DeepEqual(r.X0.Row(rep*4+i), ds.X0.Row(i)) {
				t.Fatalf("replica %d row %d differs", rep, i)
			}
		}
	}
}

func TestSplit(t *testing.T) {
	ds, err := FromFrame(testFrame(t), "y", 2, "id")
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(3)
	if train.NumRows() != 3 || test.NumRows() != 1 {
		t.Fatalf("split = %d/%d, want 3/1", train.NumRows(), test.NumRows())
	}
	if len(train.Y) != 3 || len(test.Y) != 1 {
		t.Fatalf("label split = %d/%d, want 3/1", len(train.Y), len(test.Y))
	}
}

func TestTopDomains(t *testing.T) {
	ds := &Dataset{
		Name: "d",
		X0:   NewIntMatrix(0, 3),
		Features: []Feature{
			{Name: "a", Domain: 2}, {Name: "b", Domain: 9}, {Name: "c", Domain: 5},
		},
	}
	if got := ds.TopDomains(2); !reflect.DeepEqual(got, []int{9, 5}) {
		t.Fatalf("TopDomains = %v, want [9 5]", got)
	}
	if got := ds.TopDomains(10); len(got) != 3 {
		t.Fatalf("TopDomains(10) length = %d, want 3", len(got))
	}
}
