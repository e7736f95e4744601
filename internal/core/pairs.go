package core

import (
	"encoding/binary"
	"math"
)

// group accumulates the per-candidate state of the deduplication matrix M of
// Section 4.3: the minima over all enumerated parents (used by the upper
// bounds of Equation 3/8) and the set of distinct parents (np).
type group struct {
	cols    []int
	ssUB    float64
	seUB    float64
	smUB    float64
	parents map[int]struct{}
	dead    bool // a pair-level bound already failed; the group bound can only be tighter
}

// pruneStats breaks the pruned pair-candidates of one level down by the rule
// that removed them — the per-rule numbers behind Figure 3, exposed as level
// span attributes by the observability layer.
type pruneStats struct {
	pairSize  int // failed the size bound at pair level (dedup off or L == 2)
	pairScore int // failed the score bound at pair level (dedup off or L == 2)
	dead      int // group condemned by a failing pair-level bound
	size      int // failed the group size bound ⌈ss⌉ >= σ
	score     int // failed the group score bound ⌈sc⌉ > sc_k ∧ ⌈sc⌉ >= 0
	parents   int // missing-parent handling (np != L)
}

// total is the overall pruned count recorded in LevelStats.Pruned.
func (p pruneStats) total() int {
	return p.pairSize + p.pairScore + p.dead + p.size + p.score + p.parents
}

// pairCandidates generates, deduplicates and prunes the level-L slice
// candidates from the evaluated level-(L-1) slices, following Section 4.3:
//
//  1. prune invalid inputs by minimum support and non-zero error
//     (S = removeEmpty(S · (R[,4] >= σ ∧ R[,2] > 0))),
//  2. self-join compatible slices — pairs with exactly L-2 overlapping
//     predicates (I = upper.tri((S Sᵀ) = L-2), Equation 6), realized as a
//     sparse row-wise join over per-column posting lists,
//  3. merge pairs into combined slices (P) and discard slices with multiple
//     assignments per original feature,
//  4. deduplicate via canonical slice identity (the paper's ND-array IDs
//     followed by recoding; here the sorted column list is the ID) while
//     accumulating min-bounds and the distinct-parent count, and
//  5. prune by Equation 9: ⌈ss⌉ >= σ ∧ ⌈sc⌉ > sc_k ∧ ⌈sc⌉ >= 0 ∧ np = L.
//
// It returns the surviving candidates and a per-rule pruning breakdown. A
// nil level signals that candidate generation exceeded MaxCandidatesPerLevel
// and enumeration must truncate.
func (st *state) pairCandidates(prev *level, L int, sck float64) (*level, pruneStats) {
	cfg := st.cfg

	// Step 1: input filtering.
	var keep []int
	minSS := float64(cfg.Sigma)
	if cfg.DisableSizePruning {
		minSS = 1
	}
	for i := range prev.cols {
		if prev.ss[i] >= minSS && prev.se[i] > 0 {
			keep = append(keep, i)
		}
	}

	byKey := make(map[string]int) // canonical slice identity → index in list
	var list []*group             // insertion order for deterministic output
	var pr pruneStats

	addPair := func(i, j int, union []int) {
		ssUB := math.Min(prev.ss[i], prev.ss[j])
		seUB := math.Min(prev.se[i], prev.se[j])
		smUB := math.Min(prev.sm[i], prev.sm[j])
		// Early pair-level pruning: the group bound is the min over all its
		// pairs, so one failing pair condemns the whole candidate. Only
		// applicable when the corresponding pruning is enabled.
		dead, deadBySize := false, false
		if !cfg.DisableSizePruning && ssUB < float64(cfg.Sigma) {
			dead, deadBySize = true, true
		}
		if !dead && !cfg.DisableScorePruning {
			ub := st.sc.upperBound(ssUB, seUB, smUB)
			if ub <= sck || ub < 0 {
				dead = true
			}
		}
		if cfg.DisableDedup || L == 2 {
			// No dedup matrix M needed: either the ablation disabled it
			// (config 5: every pair is its own candidate, bounds from its
			// two parents only), or L == 2, where the 2-column union
			// uniquely identifies its basic-slice pair so no duplicates can
			// arise and both parents are always enumerated (np = 2 = L).
			if dead {
				if deadBySize {
					pr.pairSize++
				} else {
					pr.pairScore++
				}
				return
			}
			list = append(list, &group{cols: union, ssUB: ssUB, seUB: seUB, smUB: smUB})
			return
		}
		key := encodeCols(union)
		idx, ok := byKey[key]
		if !ok {
			idx = len(list)
			byKey[key] = idx
			list = append(list, &group{cols: union, ssUB: math.Inf(1), seUB: math.Inf(1), smUB: math.Inf(1),
				parents: make(map[int]struct{}, L)})
		}
		g := list[idx]
		if dead {
			g.dead = true
		}
		if ssUB < g.ssUB {
			g.ssUB = ssUB
		}
		if seUB < g.seUB {
			g.seUB = seUB
		}
		if smUB < g.smUB {
			g.smUB = smUB
		}
		g.parents[i] = struct{}{}
		g.parents[j] = struct{}{}
	}

	if L == 2 {
		// Basic slices overlap in L-2 = 0 predicates: every cross-feature
		// pair is compatible.
		for a := 0; a < len(keep); a++ {
			if len(list) > cfg.MaxCandidatesPerLevel {
				return nil, pruneStats{}
			}
			i := keep[a]
			fi := st.featOf[prev.cols[i][0]]
			for b := a + 1; b < len(keep); b++ {
				j := keep[b]
				if st.featOf[prev.cols[j][0]] == fi {
					continue
				}
				union := mergeCols(prev.cols[i], prev.cols[j], L)
				if union != nil {
					addPair(i, j, union)
				}
			}
		}
	} else {
		// Sparse self-join: for each kept slice, count co-occurrences with
		// later kept slices through per-column posting lists; partners are
		// those sharing exactly L-2 columns (the = (L-2) comparison on SSᵀ).
		postings := make(map[int][]int)
		for a, i := range keep {
			for _, c := range prev.cols[i] {
				postings[c] = append(postings[c], a)
			}
		}
		counts := make([]int, len(keep))
		stamp := make([]int, len(keep))
		for s := range stamp {
			stamp[s] = -1
		}
		var touched []int
		for a, i := range keep {
			if len(list) > cfg.MaxCandidatesPerLevel {
				return nil, pruneStats{}
			}
			touched = touched[:0]
			for _, c := range prev.cols[i] {
				for _, b := range postings[c] {
					if b <= a {
						continue
					}
					if stamp[b] != a {
						stamp[b] = a
						counts[b] = 0
						touched = append(touched, b)
					}
					counts[b]++
				}
			}
			for _, b := range touched {
				if counts[b] != L-2 {
					continue
				}
				j := keep[b]
				union := mergeCols(prev.cols[i], prev.cols[j], L)
				if union == nil {
					continue // multiple assignments for one feature
				}
				// Reject unions where two columns map to the same original
				// feature (step 3's rowSums(P[,beg:end]) <= 1 check).
				if !st.featuresDisjoint(union) {
					continue
				}
				addPair(i, j, union)
			}
		}
	}

	// For L == 2 the feature-validity check happened inline (cross-feature
	// pairs only); for L >= 3 it happened before addPair. Now apply the
	// group-level pruning of Equation 9.
	out := &level{}
	var ubs []float64
	for _, g := range list {
		if g.dead {
			pr.dead++
			continue
		}
		if !cfg.DisableSizePruning && g.ssUB < float64(cfg.Sigma) {
			pr.size++
			continue
		}
		ub := st.sc.upperBound(g.ssUB, g.seUB, g.smUB)
		if !cfg.DisableScorePruning {
			if ub <= sck || ub < 0 {
				pr.score++
				continue
			}
		}
		if L > 2 && !cfg.DisableParentHandling && !cfg.DisableDedup && len(g.parents) != L {
			// Missing-parent handling: a level-L slice has L parents; if any
			// was pruned earlier, every extension is prunable too.
			pr.parents++
			continue
		}
		out.cols = append(out.cols, g.cols)
		if cfg.PriorityEnumeration {
			ubs = append(ubs, ub)
		}
	}
	out.ub = ubs
	out.sc = make([]float64, out.size())
	out.se = make([]float64, out.size())
	out.sm = make([]float64, out.size())
	out.ss = make([]float64, out.size())
	return out, pr
}

// featuresDisjoint reports whether every column of a sorted union belongs to
// a distinct original feature. Columns of one feature are contiguous, so in
// sorted order any clash is adjacent.
func (st *state) featuresDisjoint(union []int) bool {
	for k := 1; k < len(union); k++ {
		if st.featOf[union[k-1]] == st.featOf[union[k]] {
			return false
		}
	}
	return true
}

// mergeCols merges two sorted column lists, returning nil if the union does
// not have exactly want entries.
func mergeCols(a, b []int, want int) []int {
	out := make([]int, 0, want)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
		if len(out) > want {
			return nil
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	if len(out) != want {
		return nil
	}
	return out
}

// encodeCols produces the canonical string identity of a sorted column list.
// It plays the role of the paper's overflow-free ND-array slice IDs plus
// frame recoding: equal slices map to equal keys.
func encodeCols(cols []int) string {
	buf := make([]byte, 4*len(cols))
	for k, c := range cols {
		binary.LittleEndian.PutUint32(buf[4*k:], uint32(c))
	}
	return string(buf)
}

// equalCols reports whether two sorted column lists denote the same slice.
func equalCols(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func lessCols(a, b []int) bool {
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return len(a) < len(b)
}
