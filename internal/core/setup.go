package core

import (
	"sliceline/internal/frame"
	"sliceline/internal/matrix"
)

// Setup reads the rows of X0 directly; the n × l one-hot matrix X of
// Algorithm 1 lines 1–5 is never built. Row i of X holds one 1.0 per feature
// j, at column beg[j]+X0[i][j]−1, so columnStats and project below replay
// exactly the entries X would hold, in its row order.

// colStat is the level-1 state of one one-hot column: the basic slice's
// size ss, error sum se and max error sm (Equation 4), plus its support, the
// number of rows holding the column whatever their weight — the column's
// nonzero count in X.
type colStat struct {
	ss, se, sm float64
	support    int
}

// oneHotOffsets returns beg (beg[j] = first one-hot column of feature j) and
// the one-hot width l = Σ domains.
func oneHotOffsets(feats []frame.Feature) (beg []int, l int) {
	beg = make([]int, len(feats))
	for j, f := range feats {
		beg[j] = l
		l += f.Domain
	}
	return beg, l
}

// columnStats is the statistics pass: one sequential scan of X0 computing
// every one-hot column's colStat. ds must be valid (frame.Dataset.Validate).
//
// The sums replay colSums(X) and eᵀX as sparse row-order accumulations, with
// their skip rules, so every statistic is bit-identical to them:
//   - unweighted: se += e[i] for e[i] != 0, and sm = max e[i]; ss is the
//     support, an integer count below 2^53, so converting it once equals
//     summing 1.0 per row;
//   - weighted: rows with w[i] == 0 are skipped for ss, se and sm (a retired
//     row leaves every aggregate, the max included), ss += w[i], and
//     se += w[i]·e[i] for a nonzero product.
func columnStats(ds *frame.Dataset, beg []int, l int, e, w []float64) []colStat {
	cs := make([]colStat, l)
	m := len(beg)
	data := ds.X0.Data
	for i := range e {
		row := data[i*m : (i+1)*m]
		if w == nil {
			ei := e[i]
			for j, v := range row {
				st := &cs[beg[j]+v-1]
				st.support++
				if ei != 0 {
					st.se += ei
					if ei > st.sm {
						st.sm = ei
					}
				}
			}
			continue
		}
		wi, ei := w[i], e[i]
		// The explicit conversion rounds the product before the sum,
		// as the stored weighted-error vector of eᵀX did.
		we := float64(wi * ei)
		for j, v := range row {
			st := &cs[beg[j]+v-1]
			st.support++
			if wi == 0 {
				continue
			}
			st.ss += wi
			if we != 0 {
				st.se += we
			}
			if ei > st.sm {
				st.sm = ei
			}
		}
	}
	if w == nil {
		for c := range cs {
			cs[c].ss = float64(cs[c].support)
		}
	}
	return cs
}

// validColumns returns cI, the one-hot columns whose basic slice is valid
// (line 12 of Algorithm 1), in ascending order. With size pruning disabled
// for the ablation study, only the non-zero constraints apply.
func validColumns(cs []colStat, cfg Config) []int {
	minSS := float64(cfg.Sigma)
	if cfg.DisableSizePruning {
		minSS = 1
	}
	var cI []int
	for c := range cs {
		if cs[c].ss >= minSS && cs[c].se > 0 {
			cI = append(cI, c)
		}
	}
	return cI
}

// project builds X[, cI], the one-hot matrix restricted to the kept columns
// cI (strictly increasing), straight from the rows of X0: a dense old→new
// column map (−1 = dropped) and one fill pass into buffers presized to the
// exact nonzero count, Σ support over cI. Column k of the result is one-hot
// column cI[k]; within a row the columns stay ascending because beg is
// ascending and the map is monotone.
func project(ds *frame.Dataset, beg []int, cs []colStat, cI []int) *matrix.CSR {
	remap := make([]int32, len(cs))
	for c := range remap {
		remap[c] = -1
	}
	nnz := 0
	for k, c := range cI {
		remap[c] = int32(k)
		nnz += cs[c].support
	}
	n, m := ds.NumRows(), len(beg)
	rowPtr := make([]int, n+1)
	colIdx := make([]int, nnz)
	val := make([]float64, nnz)
	p := 0
	data := ds.X0.Data
	for i := 0; i < n; i++ {
		for j, v := range data[i*m : (i+1)*m] {
			if k := remap[beg[j]+v-1]; k >= 0 {
				colIdx[p] = int(k)
				val[p] = 1
				p++
			}
		}
		rowPtr[i+1] = p
	}
	return matrix.NewCSR(n, len(cI), rowPtr, colIdx, val)
}
