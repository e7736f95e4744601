package core

import (
	"fmt"
	"math/bits"
	"sync"

	"sliceline/internal/matrix"
)

// BitsetMode selects the slice-membership kernel: the packed-bitset
// AND+popcount kernel over one-hot columns, the fused CSR kernel, or an
// automatic per-dataset choice by column density (the default).
type BitsetMode int

// BitsetEval knob values.
const (
	// BitsetAuto picks the bitset kernel when the average one-hot column
	// carries at least one set bit per 64-bit word (density >= 1/64), the
	// break-even point against the CSR kernel's O(nnz) scans.
	BitsetAuto BitsetMode = iota
	// BitsetOn forces the packed-bitset kernel.
	BitsetOn
	// BitsetOff forces the fused CSR kernel.
	BitsetOff
)

// String returns the knob spelling accepted by ParseBitsetMode.
func (m BitsetMode) String() string {
	switch m {
	case BitsetAuto:
		return "auto"
	case BitsetOn:
		return "on"
	case BitsetOff:
		return "off"
	default:
		return fmt.Sprintf("BitsetMode(%d)", int(m))
	}
}

// ParseBitsetMode parses a BitsetEval knob value. The empty string parses as
// BitsetAuto so zero-valued wire configs inherit the default.
func ParseBitsetMode(s string) (BitsetMode, error) {
	switch s {
	case "", "auto":
		return BitsetAuto, nil
	case "on":
		return BitsetOn, nil
	case "off":
		return BitsetOff, nil
	default:
		return BitsetAuto, fmt.Errorf("core: unknown bitset mode %q (want auto, on or off)", s)
	}
}

// Kernel evaluates slice candidates against one row partition of the one-hot
// matrix, selecting per evaluation between the fused CSR kernel
// (EvalPartitionWeighted) and the packed-bitset kernel (EvalBitsetSerial,
// sharded across workers). The bitset packing — the columns and the error
// vector's errorBits — happens at most once per Kernel, on the first
// evaluation that takes the bitset path, and is shared by all subsequent
// levels: the pack cost is O(nnz + rows·cols/64) against per-level scans it
// saves. A Kernel is safe for concurrent Eval calls on disjoint output
// slices.
type Kernel struct {
	x    *matrix.CSR
	e, w []float64
	mode BitsetMode

	profitable bool // density heuristic, fixed at construction
	packOnce   sync.Once
	bits       *matrix.ColumnBits
	errs       errorBits
}

// NewKernel wraps a partition (one-hot matrix, error vector, optional row
// weights) with kernel selection under the given mode.
func NewKernel(x *matrix.CSR, e, w []float64, mode BitsetMode) *Kernel {
	return &Kernel{x: x, e: e, w: w, mode: mode, profitable: bitsetProfitable(x)}
}

// bitsetProfitable reports whether the packed-bitset kernel is expected to
// beat the fused CSR kernel on this matrix. The bitset kernel touches
// ceil(n/64) words per candidate column regardless of sparsity; the CSR
// kernel touches only stored entries. Break-even sits where the average
// column carries one set bit per 64-bit word, i.e. column density 1/64 —
// one-hot features with domains below ~64 are above it, ultra-high-cardinality
// features (large Criteo-style domains) fall below it.
func bitsetProfitable(x *matrix.CSR) bool {
	n, c := x.Rows(), x.Cols()
	if n == 0 || c == 0 {
		return false
	}
	return float64(x.NNZ())*64 >= float64(n)*float64(c)
}

// Rows returns the partition's row count.
func (k *Kernel) Rows() int { return k.x.Rows() }

// UsesBitset reports which path Eval will take under the kernel's mode.
func (k *Kernel) UsesBitset() bool {
	switch k.mode {
	case BitsetOn:
		return true
	case BitsetOff:
		return false
	default:
		return k.profitable
	}
}

// Backend names the selected path for tracing ("bitset" or "fused").
func (k *Kernel) Backend() string {
	if k.UsesBitset() {
		return "bitset"
	}
	return "fused"
}

// Bits returns the packed columns, packing them (and the error vector's
// errorBits) on first use.
func (k *Kernel) Bits() *matrix.ColumnBits {
	k.packOnce.Do(func() {
		k.bits = matrix.PackColumns(k.x)
		k.errs = packErrors(k.e)
	})
	return k.bits
}

// Eval evaluates the level-L candidates, accumulating into ss/se/sm (callers
// pass zeroed slices of length len(cols)), with the same statistics contract
// as EvalPartitionWeighted. blockSize only applies to the CSR path; the
// bitset path splits the candidates across MaxWorkers goroutines instead of
// sharing scans. Every candidate is computed whole, in ascending row order,
// so results are deterministic independent of scheduling.
func (k *Kernel) Eval(cols [][]int, level, blockSize int, ss, se, sm []float64) {
	if !k.UsesBitset() {
		EvalPartitionWeighted(k.x, k.e, k.w, cols, level, blockSize, ss, se, sm)
		return
	}
	if len(cols) == 0 {
		return
	}
	k.Bits()
	matrix.ParallelFor(len(cols), func(lo, hi int) {
		k.evalBitsetRange(cols, lo, hi, ss, se, sm)
	})
}

// EvalBitsetSerial evaluates all candidates through the packed-bitset kernel
// on the calling goroutine, whatever the kernel's mode. Once the kernel is
// packed (see Bits) it is the allocation-free level loop the bench
// regression gate pins at 0 allocs/op, and the kernel Eval shards.
func (k *Kernel) EvalBitsetSerial(cols [][]int, ss, se, sm []float64) {
	k.Bits()
	k.evalBitsetRange(cols, 0, len(cols), ss, se, sm)
}

// evalBitsetRange evaluates candidates [s0,s1), each as one full scan of
// evalBitsetFrom from row 0. It performs no allocations.
func (k *Kernel) evalBitsetRange(cols [][]int, s0, s1 int, ss, se, sm []float64) {
	for s := s0; s < s1; s++ {
		sumS, sumE, maxE := evalBitsetFrom(k.bits, &k.errs, k.e, k.w, cols[s], 0, 0, 0, 0)
		ss[s] += sumS
		se[s] += sumE
		if maxE > sm[s] {
			sm[s] = maxE
		}
	}
}

// errorBits describes an error vector to the bitset kernel: the packed rows
// whose error is nonzero, and whether every error is 0 or 1 (a classifier's
// 0/1 misclassification, the error of every classification workload of the
// paper). It describes the data, it is not a knob: it is built once per
// error vector — under a Kernel's packOnce, and in NewIncremental — and
// extended in place by appends, never rebuilt per evaluation.
type errorBits struct {
	nz     []uint64 // bit i set iff e[i] != 0; -0.0 counts as zero
	binary bool     // every e[i] is 0 or 1
}

// packErrors builds the errorBits of e.
func packErrors(e []float64) errorBits {
	eb := errorBits{binary: true}
	eb.extend(e, 0)
	return eb
}

// extend folds rows [from, len(e)) of the (grown) error vector into eb: the
// new nonzero rows are ORed into nz, and binary stays true only if every new
// error is 0 or 1.
func (eb *errorBits) extend(e []float64, from int) {
	if words := (len(e) + 63) >> 6; words > len(eb.nz) {
		eb.nz = append(eb.nz, make([]uint64, words-len(eb.nz))...)
	}
	for i := from; i < len(e); i++ {
		if ei := e[i]; ei != 0 {
			eb.nz[i>>6] |= 1 << uint(i&63)
			eb.binary = eb.binary && ei == 1
		}
	}
}

// evalBitsetFrom evaluates one candidate (original one-hot column ids over
// the full-width packed matrix) for rows [from, cb.Rows()), seeded with the
// accumulated statistics of rows [0, from). eb must describe e (see
// errorBits). Seeding with a prior generation's stored values and continuing
// in ascending row order produces the same float64 results as one full
// sequential pass over the rows, bit for bit — the property the incremental
// evaluator's differential tests pin. from = 0 with zero seeds is a plain
// full evaluation.
//
// One loop body runs per call, selected by the data:
//   - unweighted 0/1 errors: a branch-free AND+popcount word loop, no row
//     enumeration at all;
//   - weighted errors: an early-out word loop that enumerates every
//     matching row with TrailingZeros64 and adds w[i] and w[i]·e[i];
//   - unweighted real errors: an early-out word loop that popcounts the
//     sizes and enumerates only the matching rows with a nonzero error.
//
// The unweighted loops rest on three exact identities, each commented where
// it is used. None of the loops allocates: the only state is the
// accumulator scalars and word cursors.
func evalBitsetFrom(cb *matrix.ColumnBits, eb *errorBits, e, w []float64, cand []int, from int, seedSS, seedSE, seedSM float64) (float64, float64, float64) {
	sumS, sumE, maxE := seedSS, seedSE, seedSM
	nc := len(cand)
	if nc == 0 || from >= cb.Rows() {
		return sumS, sumE, maxE
	}
	words := cb.Words()
	// Hoist the first three column slices; deeper conjunctions (rare —
	// lattice levels beyond 3 have few surviving candidates) index the
	// packed storage per word. Below level 3, b and c alias a, so the
	// unweighted loops can AND them unconditionally.
	a := cb.Col(cand[0])
	b, c := a, a
	if nc > 1 {
		b = cb.Col(cand[1])
	}
	if nc > 2 {
		c = cb.Col(cand[2])
	}
	// The first word drops the rows below from.
	k := from >> 6
	first := ^uint64(0) << uint(from&63)

	if w != nil {
		return evalWeightedFrom(cb, e, w, cand, k, first, a, b, c, sumS, sumE, maxE)
	}
	if eb.binary {
		// Identity 3 (binary errors become a popcount): every error is 0
		// or 1, so the rows that add to sumE are exactly the matching rows
		// in nz, each adding 1.0. Any sequential sum of 1.0s from an integer
		// seed below 2^53 is that exact integer, so
		//   se = seed + popcount(m & nz)  summed over words,
		// and the max is max(seed, 1) as soon as one such row exists.
		// Identity 1 (integer size counts): sizes are popcounts summed as
		// an int and converted once; slice sizes are integers below 2^53,
		// so every grouping of the float additions is exact. (A memo seed
		// written by this loop is that exact integer, so a later pass in the
		// enumeration loop below, after a non-binary error was appended,
		// continues it bit-identically.)
		nz := eb.nz[:words]
		a, b, c = a[:len(nz)], b[:len(nz)], c[:len(nz)]
		var cnt, ecnt int
		for mask := first; k < len(nz); k++ {
			m := a[k] & b[k] & c[k] & mask
			mask = ^uint64(0)
			for j := 3; j < nc; j++ {
				m &= cb.Col(cand[j])[k]
			}
			cnt += bits.OnesCount64(m)
			ecnt += bits.OnesCount64(m & nz[k])
		}
		sumS += float64(cnt)
		sumE += float64(ecnt)
		if ecnt > 0 && 1 > maxE {
			maxE = 1
		}
		return sumS, sumE, maxE
	}

	// Real-valued errors: an early-out loop. With sparse conjunctions most
	// words match no row, and skipping them beats the branch-free loop
	// above, which touches every word of every column.
	nz := eb.nz
	var cnt int
	m := a[k] & b[k] & first
	for {
		// Skip words where the first two columns share no row. The
		// accumulators are untouched here, so this inner loop stays in
		// registers.
		for m == 0 {
			if k++; k == words {
				return sumS + float64(cnt), sumE, maxE
			}
			m = a[k] & b[k]
		}
		if nc > 2 {
			m &= c[k]
			for j := 3; j < nc && m != 0; j++ {
				m &= cb.Col(cand[j])[k]
			}
		}
		if m != 0 {
			// Identity 1: integer size counts, converted once on return.
			cnt += bits.OnesCount64(m)
			// Identity 2 (zero-error rows are skipped): only rows in nz are
			// enumerated. Adding ±0 to a sum that started at +0 leaves it
			// unchanged, and 0 never raises a max of non-negative values,
			// so the enumerated rows and their ascending order are all that
			// determine sumE and maxE.
			base := k << 6
			for t := m & nz[k]; t != 0; t &= t - 1 {
				ei := e[base+bits.TrailingZeros64(t)]
				sumE += ei
				if ei > maxE {
					maxE = ei
				}
			}
		}
		if k++; k == words {
			return sumS + float64(cnt), sumE, maxE
		}
		m = a[k] & b[k]
	}
}

// evalWeightedFrom is evalBitsetFrom's loop for weighted errors, from word k
// on (first masks the rows below from in that word). A zero-error row still
// adds its weight, so every matching row is enumerated and no identity
// applies; the columns are ANDed only while some row survives. It is a
// function of its own so that its register allocation does not depend on
// the unweighted loops (inline, the weighted bench read 5–10% slower).
func evalWeightedFrom(cb *matrix.ColumnBits, e, w []float64, cand []int, k int, first uint64, a, b, c []uint64, sumS, sumE, maxE float64) (float64, float64, float64) {
	nc, words := len(cand), cb.Words()
	m := a[k] & first
	for {
		if m != 0 && nc > 1 {
			if m &= b[k]; m != 0 && nc > 2 {
				m &= c[k]
				for j := 3; j < nc && m != 0; j++ {
					m &= cb.Col(cand[j])[k]
				}
			}
		}
		if m != 0 {
			base := k << 6
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
		if k++; k == words {
			return sumS, sumE, maxE
		}
		m = a[k]
	}
}
