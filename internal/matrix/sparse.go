package matrix

import (
	"fmt"
	"sort"
)

// CSR is a compressed-sparse-row matrix. Column indices within each row are
// stored in ascending order. It is the workhorse representation for the
// one-hot encoded dataset X and the slice matrix S, both of which are
// extremely sparse 0/1 matrices in SliceLine.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	val        []float64
}

// NewCSR assembles a CSR matrix from raw components without copying. The
// caller guarantees rowPtr has length rows+1, rowPtr[rows] == len(colIdx) ==
// len(val), and column indices are sorted within each row.
func NewCSR(rows, cols int, rowPtr, colIdx []int, val []float64) *CSR {
	if len(rowPtr) != rows+1 {
		panic(fmt.Sprintf("matrix: rowPtr length %d for %d rows", len(rowPtr), rows))
	}
	if rowPtr[rows] != len(colIdx) || len(colIdx) != len(val) {
		panic("matrix: inconsistent CSR buffers")
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// Triple is one (row, col, value) entry used to build sparse matrices. It is
// the Go analogue of the paper's table(rix, cix) contingency-table primitive.
type Triple struct {
	Row, Col int
	Val      float64
}

// CSRFromTriples builds an r×c CSR matrix from unordered triples. Values at
// duplicate coordinates are summed, exactly like table() counts duplicate
// index pairs.
func CSRFromTriples(r, c int, ts []Triple) *CSR {
	counts := make([]int, r+1)
	for _, t := range ts {
		if t.Row < 0 || t.Row >= r || t.Col < 0 || t.Col >= c {
			panic(fmt.Sprintf("matrix: triple (%d,%d) out of bounds %dx%d", t.Row, t.Col, r, c))
		}
		counts[t.Row+1]++
	}
	for i := 0; i < r; i++ {
		counts[i+1] += counts[i]
	}
	colIdx := make([]int, len(ts))
	val := make([]float64, len(ts))
	next := make([]int, r)
	copy(next, counts[:r])
	for _, t := range ts {
		p := next[t.Row]
		colIdx[p] = t.Col
		val[p] = t.Val
		next[t.Row]++
	}
	m := &CSR{rows: r, cols: c, rowPtr: counts, colIdx: colIdx, val: val}
	m.sortAndMergeRows()
	return m
}

// sortAndMergeRows sorts each row's entries by column and sums duplicates.
func (m *CSR) sortAndMergeRows() {
	newPtr := make([]int, m.rows+1)
	w := 0
	for i := 0; i < m.rows; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		row := rowView{cols: m.colIdx[lo:hi], vals: m.val[lo:hi]}
		sort.Sort(row)
		newPtr[i] = w
		for k := lo; k < hi; k++ {
			if w > newPtr[i] && m.colIdx[w-1] == m.colIdx[k] {
				m.val[w-1] += m.val[k]
				continue
			}
			m.colIdx[w] = m.colIdx[k]
			m.val[w] = m.val[k]
			w++
		}
	}
	newPtr[m.rows] = w
	m.rowPtr = newPtr
	m.colIdx = m.colIdx[:w]
	m.val = m.val[:w]
}

type rowView struct {
	cols []int
	vals []float64
}

func (r rowView) Len() int           { return len(r.cols) }
func (r rowView) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r rowView) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}

// CSRFromDense converts a dense matrix, dropping exact zeros.
func CSRFromDense(d *Dense) *CSR {
	rowPtr := make([]int, d.rows+1)
	var colIdx []int
	var val []float64
	for i := 0; i < d.rows; i++ {
		ri := d.Row(i)
		for j, v := range ri {
			if v != 0 {
				colIdx = append(colIdx, j)
				val = append(val, v)
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	return &CSR{rows: d.rows, cols: d.cols, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// Components returns the raw CSR buffers (rowPtr, colIdx, values) without
// copying, for serialization; reconstruct with NewCSR. Callers must not
// mutate the returned slices.
func (m *CSR) Components() (rowPtr, colIdx []int, val []float64) {
	return m.rowPtr, m.colIdx, m.val
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored (non-zero) entries.
func (m *CSR) NNZ() int { return len(m.val) }

// RowNNZ returns the nonzero count of row i.
func (m *CSR) RowNNZ(i int) int { return m.rowPtr[i+1] - m.rowPtr[i] }

// RowEntries returns the column indices and values of row i, aliasing the
// matrix storage.
func (m *CSR) RowEntries(i int) ([]int, []float64) {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of bounds %d", i, m.rows))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.val[lo:hi]
}

// At returns the element at row i, column j (O(log nnz(row))).
func (m *CSR) At(i, j int) float64 {
	cols, vals := m.RowEntries(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return 0
}

// ToDense materializes the matrix densely.
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		cols, vals := m.RowEntries(i)
		ri := d.Row(i)
		for k, j := range cols {
			ri[j] = vals[k]
		}
	}
	return d
}

// Clone returns a deep copy.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		rows:   m.rows,
		cols:   m.cols,
		rowPtr: append([]int(nil), m.rowPtr...),
		colIdx: append([]int(nil), m.colIdx...),
		val:    append([]float64(nil), m.val...),
	}
	return c
}

// T returns the transpose in CSR form (a CSR-to-CSC re-bucketing pass).
func (m *CSR) T() *CSR {
	counts := make([]int, m.cols+1)
	for _, j := range m.colIdx {
		counts[j+1]++
	}
	for j := 0; j < m.cols; j++ {
		counts[j+1] += counts[j]
	}
	colIdx := make([]int, len(m.colIdx))
	val := make([]float64, len(m.val))
	next := make([]int, m.cols)
	copy(next, counts[:m.cols])
	for i := 0; i < m.rows; i++ {
		cols, vals := m.RowEntries(i)
		for k, j := range cols {
			p := next[j]
			colIdx[p] = i
			val[p] = vals[k]
			next[j]++
		}
	}
	return &CSR{rows: m.cols, cols: m.rows, rowPtr: counts, colIdx: colIdx, val: val}
}

// SelectRows returns a new CSR with the rows at the given indices, in order.
func (m *CSR) SelectRows(idx []int) *CSR {
	rowPtr := make([]int, len(idx)+1)
	nnz := 0
	for k, i := range idx {
		if i < 0 || i >= m.rows {
			panic(fmt.Sprintf("matrix: SelectRows index %d out of bounds %d", i, m.rows))
		}
		nnz += m.RowNNZ(i)
		rowPtr[k+1] = nnz
	}
	colIdx := make([]int, 0, nnz)
	val := make([]float64, 0, nnz)
	for _, i := range idx {
		cols, vals := m.RowEntries(i)
		colIdx = append(colIdx, cols...)
		val = append(val, vals...)
	}
	return &CSR{rows: len(idx), cols: m.cols, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// Equal reports whether m and o represent the same matrix (shape and values,
// ignoring explicitly stored zeros).
func (m *CSR) Equal(o *CSR) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	return m.ToDense().Equal(o.ToDense())
}
