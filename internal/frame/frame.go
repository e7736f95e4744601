// Package frame implements the data-preparation substrate SliceLine expects
// from its host ML system: tabular frames with categorical and numeric
// columns, recoding of categories to 1-based integer codes, equi-width
// binning of continuous features, one-hot encoding into a sparse matrix, and
// CSV ingestion. The output of this package is the integer-encoded feature
// matrix X0 (1-based, continuous integer ranges per feature) that Algorithm 1
// consumes.
package frame

import (
	"fmt"
	"math"
	"sort"
)

// Kind describes the type of a column.
type Kind int

// Column kinds.
const (
	Categorical Kind = iota
	Numeric
)

// Column is a single named column of a frame. Exactly one of Strings or
// Floats is populated, according to Kind.
type Column struct {
	Name    string
	Kind    Kind
	Strings []string
	Floats  []float64
}

// Len returns the number of values in the column.
func (c *Column) Len() int {
	if c.Kind == Categorical {
		return len(c.Strings)
	}
	return len(c.Floats)
}

// Frame is a collection of equal-length columns.
type Frame struct {
	cols []Column
}

// NewFrame validates that all columns have equal length and returns a frame.
func NewFrame(cols []Column) (*Frame, error) {
	if len(cols) == 0 {
		return &Frame{}, nil
	}
	n := cols[0].Len()
	for i := range cols {
		if cols[i].Len() != n {
			return nil, fmt.Errorf("frame: column %q has %d rows, want %d", cols[i].Name, cols[i].Len(), n)
		}
	}
	return &Frame{cols: cols}, nil
}

// NumRows returns the number of rows.
func (f *Frame) NumRows() int {
	if len(f.cols) == 0 {
		return 0
	}
	return f.cols[0].Len()
}

// NumCols returns the number of columns.
func (f *Frame) NumCols() int { return len(f.cols) }

// Column returns the column with the given name.
func (f *Frame) Column(name string) (*Column, error) {
	for i := range f.cols {
		if f.cols[i].Name == name {
			return &f.cols[i], nil
		}
	}
	return nil, fmt.Errorf("frame: no column %q", name)
}

// Columns returns all columns.
func (f *Frame) Columns() []Column { return f.cols }

// IntMatrix is a row-major matrix of integers holding the recoded/binned
// feature matrix X0. Values are 1-based codes; 0 is reserved (never a valid
// code) so that decoded top-K slice rows can use 0 for "free feature".
type IntMatrix struct {
	Rows, Cols int
	Data       []int
}

// NewIntMatrix returns a zeroed r×c integer matrix.
func NewIntMatrix(r, c int) *IntMatrix {
	return &IntMatrix{Rows: r, Cols: c, Data: make([]int, r*c)}
}

// At returns element (i, j).
func (m *IntMatrix) At(i, j int) int { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *IntMatrix) Set(i, j, v int) { m.Data[i*m.Cols+j] = v }

// Row returns row i aliasing the underlying storage.
func (m *IntMatrix) Row(i int) []int { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *IntMatrix) Clone() *IntMatrix {
	c := NewIntMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Recode maps arbitrary category strings to dense 1-based integer codes in
// order of first appearance, the behaviour of SystemDS frame recoding. It
// returns the codes and the decode table (labels[k-1] is the category of
// code k).
func Recode(values []string) (codes []int, labels []string) {
	codes = make([]int, len(values))
	idx := make(map[string]int, 16)
	for i, v := range values {
		k, ok := idx[v]
		if !ok {
			labels = append(labels, v)
			k = len(labels)
			idx[v] = k
		}
		codes[i] = k
	}
	return codes, labels
}

// BinEquiWidth assigns each value to one of nBins equi-width bins over
// [min, max], producing 1-based codes. NaN values map to an extra
// "missing" bin code nBins+1 when present. The returned edges slice has
// nBins+1 boundaries. A constant column maps entirely to bin 1.
func BinEquiWidth(values []float64, nBins int) (codes []int, edges []float64) {
	if nBins < 1 {
		panic(fmt.Sprintf("frame: nBins = %d, want >= 1", nBins))
	}
	codes = make([]int, len(values))
	lo, hi := math.Inf(1), math.Inf(-1)
	hasNaN := false
	for _, v := range values {
		if math.IsNaN(v) {
			hasNaN = true
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo > hi { // all NaN or empty
		lo, hi = 0, 0
	}
	edges = make([]float64, nBins+1)
	width := (hi - lo) / float64(nBins)
	for i := range edges {
		edges[i] = lo + float64(i)*width
	}
	edges[nBins] = hi
	for i, v := range values {
		switch {
		case math.IsNaN(v):
			codes[i] = nBins + 1
		case width == 0:
			codes[i] = 1
		default:
			b := int((v-lo)/width) + 1
			if b > nBins {
				b = nBins
			}
			codes[i] = b
		}
	}
	_ = hasNaN
	return codes, edges
}

// Feature describes one encoded feature of a dataset: its name, domain size
// (number of distinct 1-based codes) and, when available, human-readable
// labels per code.
type Feature struct {
	Name   string
	Domain int
	Labels []string // optional; Labels[k-1] decodes code k
}

// Dataset is an integer-encoded feature matrix X0 with per-feature metadata
// and an aligned label vector Y. It is the direct input of the SliceLine
// algorithm.
type Dataset struct {
	Name     string
	X0       *IntMatrix
	Features []Feature
	Y        []float64

	// Encoders freezes the per-feature value→code mapping used to encode
	// X0, when known (FromFrame records it). It is what makes a dataset
	// appendable: new rows are encoded against the frozen mapping instead
	// of re-deriving it, so codes stay stable across appends and only new
	// categorical values (or previously unseen bins) grow a domain. Nil for
	// datasets built directly from integer codes.
	Encoders []ColumnEncoder
}

// Validate checks structural invariants: code ranges, alignment, and
// positive domains. Enumeration correctness depends on codes forming the
// continuous range 1..Domain per feature.
//
// The scan runs row by row, in X0's storage order. Only once it finds a
// violation does the column-by-column pass below rebuild the error, so the
// reported violation is always the first bad code of the first bad feature.
func (d *Dataset) Validate() error {
	if d.X0 == nil {
		return fmt.Errorf("dataset %s: nil X0", d.Name)
	}
	if d.X0.Cols != len(d.Features) {
		return fmt.Errorf("dataset %s: %d feature columns vs %d feature descriptors", d.Name, d.X0.Cols, len(d.Features))
	}
	if d.Y != nil && len(d.Y) != d.X0.Rows {
		return fmt.Errorf("dataset %s: %d labels vs %d rows", d.Name, len(d.Y), d.X0.Rows)
	}
	if d.codesInRange() {
		return nil
	}
	for j, f := range d.Features {
		if f.Domain < 1 {
			return fmt.Errorf("dataset %s: feature %q has domain %d", d.Name, f.Name, f.Domain)
		}
		for i := 0; i < d.X0.Rows; i++ {
			v := d.X0.At(i, j)
			if v < 1 || v > f.Domain {
				return fmt.Errorf("dataset %s: code %d out of range [1,%d] at row %d feature %q", d.Name, v, f.Domain, i, f.Name)
			}
		}
	}
	return nil
}

// codesInRange reports whether every domain is positive and every code of X0
// lies in 1..Domain of its feature, scanning X0 row by row.
func (d *Dataset) codesInRange() bool {
	doms := make([]uint, len(d.Features))
	for j, f := range d.Features {
		if f.Domain < 1 {
			return false
		}
		doms[j] = uint(f.Domain)
	}
	m := len(doms)
	if m == 0 {
		return true
	}
	data := d.X0.Data[:d.X0.Rows*m]
	for lo := 0; lo < len(data); lo += m {
		for j, v := range data[lo : lo+m] {
			// v-1 wraps to a huge uint for v < 1.
			if uint(v-1) >= doms[j] {
				return false
			}
		}
	}
	return true
}

// NumRows returns the number of rows.
func (d *Dataset) NumRows() int { return d.X0.Rows }

// NumFeatures returns the number of original (pre-one-hot) features.
func (d *Dataset) NumFeatures() int { return d.X0.Cols }

// OneHotWidth returns l, the total one-hot width sum(domains).
func (d *Dataset) OneHotWidth() int {
	l := 0
	for _, f := range d.Features {
		l += f.Domain
	}
	return l
}

// ReplicateRows returns a dataset with the rows (and labels) repeated
// factor times, the row-scaling construction of the paper's Figure 7(a).
func (d *Dataset) ReplicateRows(factor int) *Dataset {
	if factor < 1 {
		panic(fmt.Sprintf("frame: replication factor %d, want >= 1", factor))
	}
	n := d.X0.Rows
	out := &Dataset{
		Name:     fmt.Sprintf("%s_x%d", d.Name, factor),
		X0:       NewIntMatrix(n*factor, d.X0.Cols),
		Features: append([]Feature(nil), d.Features...),
	}
	for r := 0; r < factor; r++ {
		copy(out.X0.Data[r*len(d.X0.Data):], d.X0.Data)
	}
	if d.Y != nil {
		out.Y = make([]float64, 0, n*factor)
		for r := 0; r < factor; r++ {
			out.Y = append(out.Y, d.Y...)
		}
	}
	return out
}

// FromFrame encodes a frame into a Dataset: categorical columns are recoded,
// numeric columns are binned into nBins equi-width bins, and the named label
// column is extracted as Y (it must be numeric, and is not binned). Columns
// listed in drop are skipped, mirroring the paper's preprocessing (drop ID
// columns, bin continuous features into 10 equi-width bins, recode
// categories).
func FromFrame(f *Frame, labelCol string, nBins int, drop ...string) (*Dataset, error) {
	dropped := make(map[string]bool, len(drop))
	for _, d := range drop {
		dropped[d] = true
	}
	ds := &Dataset{}
	var featCols []Column
	for _, c := range f.Columns() {
		if c.Name == labelCol {
			if c.Kind != Numeric {
				return nil, fmt.Errorf("frame: label column %q must be numeric", labelCol)
			}
			ds.Y = append([]float64(nil), c.Floats...)
			continue
		}
		if dropped[c.Name] {
			continue
		}
		featCols = append(featCols, c)
	}
	if labelCol != "" && ds.Y == nil {
		return nil, fmt.Errorf("frame: label column %q not found", labelCol)
	}
	n := f.NumRows()
	if n == 0 && len(featCols) > 0 {
		// Zero rows would yield features with domain 0, which Validate
		// rejects; reject the input up front with a clearer message.
		return nil, fmt.Errorf("frame: cannot encode a frame with no rows")
	}
	ds.X0 = NewIntMatrix(n, len(featCols))
	ds.Features = make([]Feature, len(featCols))
	ds.Encoders = make([]ColumnEncoder, len(featCols))
	for j, c := range featCols {
		var codes []int
		feat := Feature{Name: c.Name}
		enc := ColumnEncoder{Name: c.Name, Kind: c.Kind}
		if c.Kind == Categorical {
			var labels []string
			codes, labels = Recode(c.Strings)
			feat.Domain = len(labels)
			feat.Labels = labels
			enc.Labels = labels
		} else {
			var edges []float64
			codes, edges = BinEquiWidth(c.Floats, nBins)
			maxCode := 0
			for _, v := range codes {
				if v > maxCode {
					maxCode = v
				}
			}
			feat.Domain = maxCode
			feat.Labels = binLabels(edges, maxCode)
			enc.Lo = edges[0]
			enc.Hi = edges[nBins]
			enc.NBins = nBins
		}
		for i, v := range codes {
			ds.X0.Set(i, j, v)
		}
		ds.Features[j] = feat
		ds.Encoders[j] = enc
	}
	return ds, nil
}

func binLabels(edges []float64, maxCode int) []string {
	labels := make([]string, maxCode)
	for b := 0; b < maxCode; b++ {
		if b < len(edges)-1 {
			labels[b] = fmt.Sprintf("[%.4g,%.4g)", edges[b], edges[b+1])
		} else {
			labels[b] = "missing"
		}
	}
	return labels
}

// Split partitions the dataset into train and test subsets by row index:
// rows with index < cut go to train. Callers shuffle beforehand if needed.
func (d *Dataset) Split(cut int) (train, test *Dataset) {
	if cut < 0 || cut > d.X0.Rows {
		panic(fmt.Sprintf("frame: split point %d out of range [0,%d]", cut, d.X0.Rows))
	}
	mk := func(name string, lo, hi int) *Dataset {
		out := &Dataset{
			Name:     name,
			X0:       &IntMatrix{Rows: hi - lo, Cols: d.X0.Cols, Data: d.X0.Data[lo*d.X0.Cols : hi*d.X0.Cols]},
			Features: d.Features,
		}
		if d.Y != nil {
			out.Y = d.Y[lo:hi]
		}
		return out
	}
	return mk(d.Name+"_train", 0, cut), mk(d.Name+"_test", cut, d.X0.Rows)
}

// SortedDomains returns the per-feature domains in feature order; it is a
// convenience for reporting Table 1 style statistics.
func (d *Dataset) SortedDomains() []int {
	out := make([]int, len(d.Features))
	for i, f := range d.Features {
		out[i] = f.Domain
	}
	return out
}

// TopDomains returns the k largest feature domains, descending, for
// dataset characterization.
func (d *Dataset) TopDomains(k int) []int {
	doms := d.SortedDomains()
	sort.Sort(sort.Reverse(sort.IntSlice(doms)))
	if k > len(doms) {
		k = len(doms)
	}
	return doms[:k]
}
