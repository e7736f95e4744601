package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sliceline/internal/matrix"
	"sliceline/internal/obs"
)

// ExternalEvaluator evaluates slice candidates against the (reduced) one-hot
// dataset on behalf of the enumeration loop. Implementations may distribute
// the evaluation (package dist ships row-partitioned local and TCP-based
// backends). Setup is called once per run with the reduced matrix and error
// vector before any Eval call.
//
// The context carries the run's deadline and cancellation: implementations
// that perform network calls must abort promptly when it is done, so a
// cancelled run does not leave RPCs in flight.
type ExternalEvaluator interface {
	Setup(ctx context.Context, x *matrix.CSR, e []float64) error
	// Eval returns, per candidate (a sorted list of reduced one-hot
	// columns), the slice size, total error and maximum tuple error.
	Eval(ctx context.Context, cols [][]int, level int) (ss, se, sm []float64, err error)
}

// evalSlices evaluates all level-L candidates against the reduced one-hot
// matrix, the vectorized evaluation of Section 4.4 / Equation 10:
//
//	I  = ((X Sᵀ) = L)
//	ss = colSums(I)   se = (eᵀ I)ᵀ   sm = colMaxs(I · e)
//
// The implementation is the fused, hybrid-parallel form: slices are grouped
// into blocks of cfg.BlockSize (b=1 reproduces the task-parallel plan of
// Algorithm 1 lines 16-18, b=nrow(S) the data-parallel plan), each block
// scans X once and counts predicate matches through a per-block inverted
// column index, never materializing the n × nrow(S) indicator I.
func (st *state) evalSlices(ctx context.Context, lv *level, L int) error {
	nSlices := lv.size()
	if nSlices == 0 {
		return nil
	}
	// The eval span parents under whatever span the context carries (the
	// level span during enumeration). Nil in, nil out: with tracing off this
	// whole block is a handful of nil checks and never allocates.
	sp := obs.FromContext(ctx).Child("core.eval")
	sp.SetInt("level", int64(L))
	sp.SetInt("candidates", int64(nSlices))
	evalStart := time.Now()
	switch {
	case st.eval != nil:
		sp.SetStr("backend", "external")
		ss, se, sm, err := st.eval.Eval(obs.ContextWith(ctx, sp), lv.cols, L)
		if err != nil {
			sp.End()
			return err
		}
		if len(ss) != nSlices || len(se) != nSlices || len(sm) != nSlices {
			sp.End()
			return fmt.Errorf("core: evaluator returned %d/%d/%d statistics for %d candidates",
				len(ss), len(se), len(sm), nSlices)
		}
		copy(lv.ss, ss)
		copy(lv.se, se)
		copy(lv.sm, sm)
	case st.memo != nil:
		// Incremental path: statistics memoized across generations by
		// original one-hot column ids; only rows appended since a
		// candidate's last evaluation are scanned.
		sp.SetStr("backend", "memo")
		st.memo.evalLevel(st.origCols, st.e, lv)
	case st.cfg.DenseEval:
		sp.SetStr("backend", "dense")
		st.evalDense(lv, L)
	default:
		// Per-level kernel selection (Config.BitsetEval): packed-bitset
		// AND+popcount when the reduced columns are dense enough, the fused
		// CSR kernel otherwise. The packing happens once, on the first level
		// that takes the bitset path.
		sp.SetStr("backend", st.kernel.Backend())
		st.kernel.Eval(lv.cols, L, st.cfg.BlockSize, lv.ss, lv.se, lv.sm)
	}
	st.ob.evalSecs.Observe(time.Since(evalStart).Seconds())
	sp.End()
	for i := 0; i < nSlices; i++ {
		lv.sc[i] = st.sc.score(lv.ss[i], lv.se[i])
	}
	return nil
}

// EvalPartition evaluates candidates against one row partition of the
// one-hot matrix, accumulating into ss/se/sm (callers pass zeroed slices of
// length len(cols)). blockSize <= 0 selects the automatic size. It is the
// kernel shared by the local evaluator and the distributed workers.
func EvalPartition(x *matrix.CSR, e []float64, cols [][]int, level, blockSize int, ss, se, sm []float64) {
	EvalPartitionWeighted(x, e, nil, cols, level, blockSize, ss, se, sm)
}

// EvalPartitionWeighted is EvalPartition with optional row weights: row i
// contributes w[i] to slice sizes and w[i]·e[i] to slice errors (nil w means
// unit weights). The maximum tuple error sm ignores the magnitude of positive
// weights but excludes zero-weight (retired) rows entirely.
func EvalPartitionWeighted(x *matrix.CSR, e, w []float64, cols [][]int, level, blockSize int, ss, se, sm []float64) {
	nSlices := len(cols)
	if nSlices == 0 {
		return
	}
	b := blockSize
	if b <= 0 {
		// Auto: one scan of X per block is the dominant cost, so prefer few
		// large blocks while leaving enough blocks to keep all workers busy.
		b = (nSlices + 4*matrix.MaxWorkers() - 1) / (4 * matrix.MaxWorkers())
		if b < DefaultBlockSize {
			b = DefaultBlockSize
		}
	}
	if b > nSlices {
		b = nSlices
	}
	nBlocks := (nSlices + b - 1) / b
	if nBlocks == 1 {
		evalBlockRowParallel(x, e, w, cols, level, 0, nSlices, ss, se, sm)
		return
	}
	matrix.ParallelFor(nBlocks, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			s0 := blk * b
			s1 := s0 + b
			if s1 > nSlices {
				s1 = nSlices
			}
			evalBlockSerial(x, e, w, cols, level, s0, s1, ss, se, sm)
		}
	})
}

// blockIndex is the inverted index of one evaluation block: for each reduced
// column, the block-local ids of slices whose definition contains it.
type blockIndex struct {
	postings [][]int32
	touched  []int32
	counts   []int32
}

func buildBlockIndex(nCols int, cols [][]int, s0, s1 int) *blockIndex {
	bi := &blockIndex{
		postings: make([][]int32, nCols),
		counts:   make([]int32, s1-s0),
	}
	for s := s0; s < s1; s++ {
		for _, c := range cols[s] {
			bi.postings[c] = append(bi.postings[c], int32(s-s0))
		}
	}
	return bi
}

// scanRows streams rows [lo,hi) of x through the index and accumulates the
// statistics of every slice matching all L of its predicates into the
// block-local ss/se/sm, in ascending row order.
func (bi *blockIndex) scanRows(x *matrix.CSR, e, w []float64, L, lo, hi int, ss, se, sm []float64) {
	want := int32(L)
	for i := lo; i < hi; i++ {
		rowCols, _ := x.RowEntries(i)
		for _, c := range rowCols {
			for _, s := range bi.postings[c] {
				if bi.counts[s] == 0 {
					bi.touched = append(bi.touched, s)
				}
				bi.counts[s]++
			}
		}
		ei := e[i]
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		for _, s := range bi.touched {
			if bi.counts[s] == want {
				ss[s] += wi
				se[s] += wi * ei
				if wi > 0 && ei > sm[s] {
					sm[s] = ei
				}
			}
			bi.counts[s] = 0
		}
		bi.touched = bi.touched[:0]
	}
}

// evalBlockSerial scans the full partition once for slices [s0,s1), serially.
func evalBlockSerial(x *matrix.CSR, e, w []float64, cols [][]int, L, s0, s1 int, ss, se, sm []float64) {
	bi := buildBlockIndex(x.Cols(), cols, s0, s1)
	bi.scanRows(x, e, w, L, 0, x.Rows(), ss[s0:s1], se[s0:s1], sm[s0:s1])
}

// evalBlockRowParallel evaluates one block with row-partitioned parallelism
// (the data-parallel plan: rows of X are scanned concurrently and per-worker
// partial statistics are merged), used when all slices fit a single block.
//
// Partials are merged in row-chunk order, not goroutine-completion order:
// float64 addition is not associative, so a completion-order merge would make
// the same run return se values that differ in the last ULPs from one
// invocation to the next. The row chunking itself is deterministic (it
// depends only on n and MaxWorkers), so repeated runs are bit-identical.
func evalBlockRowParallel(x *matrix.CSR, e, w []float64, cols [][]int, L, s0, s1 int, ss, se, sm []float64) {
	width := s1 - s0
	n := x.Rows()
	workers := matrix.MaxWorkers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		evalBlockSerial(x, e, w, cols, L, s0, s1, ss, se, sm)
		return
	}
	type partial struct {
		ss, se, sm []float64
	}
	chunk := (n + workers - 1) / workers
	nChunks := (n + chunk - 1) / chunk
	partials := make([]partial, nChunks)
	var wg sync.WaitGroup
	for c := 0; c < nChunks; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lo := c * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			p := partial{
				ss: make([]float64, width),
				se: make([]float64, width),
				sm: make([]float64, width),
			}
			buildBlockIndex(x.Cols(), cols, s0, s1).scanRows(x, e, w, L, lo, hi, p.ss, p.se, p.sm)
			partials[c] = p
		}(c)
	}
	wg.Wait()
	for _, p := range partials {
		for s := 0; s < width; s++ {
			g := s + s0
			ss[g] += p.ss[s]
			se[g] += p.se[s]
			if p.sm[s] > sm[g] {
				sm[g] = p.sm[s]
			}
		}
	}
}

// evalDense evaluates candidates by materializing the X·Sᵀ product and the
// 0/1 indicator I densely in column chunks, mimicking ML systems with
// limited sparsity exploitation across operations (the concern Section 4.4
// raises). It exists for the kernel-quality comparison experiment; the
// fused kernel above is the production path.
func (st *state) evalDense(lv *level, L int) {
	const chunk = 512
	// Zero-weight (retired) rows are excluded from the max tuple error; since
	// e >= 0, zeroing their entries drops them from the column max.
	smE := st.e
	if st.w != nil {
		smE = make([]float64, len(st.e))
		for i, v := range st.e {
			if st.w[i] > 0 {
				smE[i] = v
			}
		}
	}
	for s0 := 0; s0 < lv.size(); s0 += chunk {
		s1 := s0 + chunk
		if s1 > lv.size() {
			s1 = lv.size()
		}
		// Materialize S for the chunk as CSR, then XSᵀ densely.
		var ts []matrix.Triple
		for s := s0; s < s1; s++ {
			for _, c := range lv.cols[s] {
				ts = append(ts, matrix.Triple{Row: s - s0, Col: c, Val: 1})
			}
		}
		sMat := matrix.CSRFromTriples(s1-s0, st.x.Cols(), ts)
		prod := matrix.MulCSRT(st.x, sMat)       // n × chunk dense
		ind := matrix.EqScalar(prod, float64(L)) // I = ((X Sᵀ) = L)
		var ssC, seC []float64
		if st.w == nil {
			ssC = matrix.ColSums(ind)          // ss = colSums(I)
			seC = matrix.MatVec(ind.T(), st.e) // se = (eᵀ I)ᵀ
		} else {
			ssC = matrix.MatVec(ind.T(), st.w)
			we := make([]float64, len(st.e))
			for i := range we {
				we[i] = st.w[i] * st.e[i]
			}
			seC = matrix.MatVec(ind.T(), we)
		}
		smC := matrix.ColMaxs(matrix.ScaleRows(ind, smE))
		for s := s0; s < s1; s++ {
			lv.ss[s] = ssC[s-s0]
			lv.se[s] = seC[s-s0]
			lv.sm[s] = smC[s-s0]
		}
	}
}
