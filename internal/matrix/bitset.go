package matrix

import "fmt"

// ColumnBits is a packed column-major bitset view of a 0/1 matrix: bit i of
// column c is set exactly when row i stores a nonzero in column c. Each
// column occupies ceil(rows/64) consecutive uint64 words, so testing whether
// a row satisfies a conjunction of columns is a word-wise AND and counting
// the rows that do is math/bits.OnesCount64 — the slice-membership primitive
// of SliceLine's evaluation kernel (Section 4.4 / Equation 10) without
// materializing the n × nrow(S) indicator.
//
// The layout trades memory for scan speed: a ColumnBits always costs
// rows·cols/8 bytes regardless of sparsity, where CSR costs O(nnz). The
// break-even sits near one set bit per 64-bit word (column density 1/64);
// core's kernel selection applies exactly that rule.
type ColumnBits struct {
	rows, cols int
	words      int      // per-column word count, ceil(rows/64)
	bits       []uint64 // cols*words; column c occupies bits[c*words:(c+1)*words]
}

// PackColumns packs every column of a CSR matrix into bitsets. Stored zeros
// (possible after triple summation) are not set, matching the CSR kernels'
// treatment of explicit zeros. Bits past the last row in the ragged tail
// word (rows % 64 != 0) are always zero, so popcounts never overcount.
func PackColumns(x *CSR) *ColumnBits {
	words := (x.rows + 63) / 64
	cb := &ColumnBits{
		rows:  x.rows,
		cols:  x.cols,
		words: words,
		bits:  make([]uint64, x.cols*words),
	}
	for i := 0; i < x.rows; i++ {
		w := i >> 6
		bit := uint64(1) << uint(i&63)
		cols, vals := x.RowEntries(i)
		for k, c := range cols {
			if vals[k] != 0 {
				cb.bits[c*words+w] |= bit
			}
		}
	}
	return cb
}

// Rows returns the row count of the packed matrix.
func (cb *ColumnBits) Rows() int { return cb.rows }

// Cols returns the column count of the packed matrix.
func (cb *ColumnBits) Cols() int { return cb.cols }

// Words returns the number of 64-bit words per column.
func (cb *ColumnBits) Words() int { return cb.words }

// Col returns the packed words of column c, aliasing the internal storage.
// Callers must not mutate the returned slice.
func (cb *ColumnBits) Col(c int) []uint64 {
	if c < 0 || c >= cb.cols {
		panic(fmt.Sprintf("matrix: ColumnBits column %d out of bounds %d", c, cb.cols))
	}
	return cb.bits[c*cb.words : (c+1)*cb.words]
}

// Packed returns the words of every column in one array, column c at
// [c*Words(), (c+1)*Words()), aliasing the internal storage. Kernels index it
// flat where a Col call per word would cost a bounds-checked call. Callers
// must not mutate the returned slice.
func (cb *ColumnBits) Packed() []uint64 { return cb.bits }
