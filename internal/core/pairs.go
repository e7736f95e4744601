package core

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"sliceline/internal/matrix"
	"sliceline/internal/obs"
)

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

func (p *pruneStats) add(q pruneStats) {
	p.pairSize += q.pairSize
	p.pairScore += q.pairScore
	p.dead += q.dead
	p.size += q.size
	p.score += q.score
	p.parents += q.parents
}

// generator is the candidate-generation scratch of one run. Its buffers are
// reused from level to level, so a level allocates only its output.
type generator struct {
	// Inputs of the current level, read-only while the workers run.
	prev  *level
	L     int
	sck   float64
	keep  []int // indices into prev of the slices that take part in the join
	dedup bool  // pairs are deduplicated into groups (L > 2, dedup enabled)
	// Per-column posting lists over keep positions (L > 2):
	// post[postStart[c]:postStart[c+1]] lists, ascending, the positions a
	// whose slice contains column c, and at[a*(L-1)+x] is the index in post
	// of a itself within the list of its x-th column.
	postStart, post, at []int32

	tabs  []genTable   // one per worker; tabs[w] owns the unions hashed to w
	heads []int        // merge cursors into tabs[w].surv
	total atomic.Int64 // groups created by all workers so far
	wg    sync.WaitGroup
}

// genTable is one worker's share of the deduplication matrix M of Section
// 4.3, stored as parallel arrays indexed by group. Group g is the candidate
// with columns cols[g*L:(g+1)*L], the minima of its bounds over its
// enumerated parent pairs, its pair count and whether a pair-level bound
// already condemned it. slots is an open-addressing index over the groups
// (group+1, 0 = empty), probed linearly from hashCols.
type genTable struct {
	cols             []int
	ssUB, seUB, smUB []float64
	pairs            []int32
	dead             []bool
	seq              []uint64 // first-seen join position a<<32 | k: the serial insertion order
	slots            []int32

	pr     pruneStats
	npairs int       // pairs enumerated into this table
	surv   []int32   // groups that survive pruning, in creation order
	ub     []float64 // their score upper bounds

	// Join scratch: per kept position b, the columns it shares with the
	// current a (valid while stamp[b] == a), and the positions touched.
	counts, stamp, touched []int32
	buf                    []int // the union of the current pair
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
//     followed by recoding; here a hash table over the sorted column tuples)
//     while accumulating min-bounds and the parent-pair count, and
//  5. prune by Equation 9: ⌈ss⌉ >= σ ∧ ⌈sc⌉ > sc_k ∧ ⌈sc⌉ >= 0 ∧ np = L.
//
// With deduplication (L > 2) the join runs on matrix.MaxWorkers goroutines:
// each scans every pair but keeps only the unions whose hash it owns, and
// the survivors are merged back in first-seen order, so the output is the
// same at any worker count. It returns the surviving candidates and a
// per-rule pruning breakdown, and records the group, pair and worker counts
// on sp. A nil level signals that candidate generation exceeded
// MaxCandidatesPerLevel and enumeration must truncate.
func (st *state) pairCandidates(prev *level, L int, sck float64, sp *obs.Span) (*level, pruneStats) {
	cfg := st.cfg
	if st.gen == nil {
		st.gen = &generator{}
	}
	g := st.gen
	g.prev, g.L, g.sck = prev, L, sck
	g.dedup = L > 2 && !cfg.DisableDedup

	// Step 1: input filtering.
	minSS := float64(cfg.Sigma)
	if cfg.DisableSizePruning {
		minSS = 1
	}
	g.keep = g.keep[:0]
	for i := range prev.cols {
		if prev.ss[i] >= minSS && prev.se[i] > 0 {
			g.keep = append(g.keep, i)
		}
	}
	if L > 2 {
		g.buildPostings(len(st.featOf))
	}

	workers := 1
	if g.dedup {
		workers = matrix.MaxWorkers()
	}
	for len(g.tabs) < workers {
		g.tabs = append(g.tabs, genTable{})
	}
	tabs := g.tabs[:workers]
	g.total.Store(0)
	for w := 1; w < workers; w++ {
		g.wg.Add(1)
		go func(w int) {
			defer g.wg.Done()
			st.generate(w, workers)
		}(w)
	}
	st.generate(0, workers)
	g.wg.Wait()

	groups, npairs := g.total.Load(), 0
	for w := range tabs {
		npairs += tabs[w].npairs
	}
	sp.SetInt("groups", groups)
	sp.SetInt("pairs", int64(npairs))
	sp.SetInt("workers", int64(workers))
	if groups > int64(cfg.MaxCandidatesPerLevel) {
		return nil, pruneStats{}
	}

	var pr pruneStats
	n := 0
	for w := range tabs {
		pr.add(tabs[w].pr)
		n += len(tabs[w].surv)
	}
	out := &level{
		cols: make([][]int, n),
		sc:   make([]float64, n),
		se:   make([]float64, n),
		sm:   make([]float64, n),
		ss:   make([]float64, n),
	}
	if cfg.PriorityEnumeration && n > 0 {
		out.ub = make([]float64, n)
	}
	// Concatenate the survivors in first-seen order. Each table holds its
	// groups in creation order, so this is a k-way merge on seq.
	flat := make([]int, n*L)
	g.heads = g.heads[:0]
	for range tabs {
		g.heads = append(g.heads, 0)
	}
	for k := 0; k < n; k++ {
		best, bestSeq := -1, uint64(0)
		for w := range tabs {
			if h := g.heads[w]; h < len(tabs[w].surv) {
				if s := tabs[w].seq[tabs[w].surv[h]]; best < 0 || s < bestSeq {
					best, bestSeq = w, s
				}
			}
		}
		t := &tabs[best]
		h := g.heads[best]
		grp := int(t.surv[h])
		c := flat[k*L : (k+1)*L : (k+1)*L]
		copy(c, t.cols[grp*L:])
		out.cols[k] = c
		if out.ub != nil {
			out.ub[k] = t.ub[h]
		}
		g.heads[best] = h + 1
	}
	return out, pr
}

// buildPostings fills the per-column posting lists of the kept slices by a
// counting sort over their columns.
func (g *generator) buildPostings(ncols int) {
	cols, L1 := g.prev.cols, g.L-1
	g.postStart = resize32(g.postStart, ncols+1)
	clear(g.postStart)
	for _, i := range g.keep {
		for _, c := range cols[i] {
			g.postStart[c+1]++
		}
	}
	for c := 0; c < ncols; c++ {
		g.postStart[c+1] += g.postStart[c]
	}
	g.post = resize32(g.post, len(g.keep)*L1)
	g.at = resize32(g.at, len(g.keep)*L1)
	// Fill with postStart[c] as the cursor of column c, which leaves it at
	// the start of column c+1; shift back afterwards.
	for a, i := range g.keep {
		for x, c := range cols[i] {
			p := g.postStart[c]
			g.post[p] = int32(a)
			g.at[a*L1+x] = p
			g.postStart[c] = p + 1
		}
	}
	copy(g.postStart[1:], g.postStart[:ncols])
	g.postStart[0] = 0
}

// generate runs worker w of workers: the join over all kept pairs, keeping
// the unions hashed to w, followed by the Equation 9 pruning of its groups.
func (st *state) generate(w, workers int) {
	g := st.gen
	t := &g.tabs[w]
	L, keep, cols := g.L, g.keep, g.prev.cols
	t.reset(L, len(keep))
	limit := int64(st.cfg.MaxCandidatesPerLevel)
	flushed := 0
	for a, i := range keep {
		// The candidate budget is checked before each kept slice, on the
		// groups of all workers: the running total only grows, so once it
		// exceeds the budget the final total does too.
		if g.total.Add(int64(len(t.dead)-flushed)) > limit {
			return
		}
		flushed = len(t.dead)
		if L == 2 {
			// Basic slices overlap in L-2 = 0 predicates: every
			// cross-feature pair is compatible.
			fi := st.featOf[cols[i][0]]
			for b := a + 1; b < len(keep); b++ {
				if j := keep[b]; st.featOf[cols[j][0]] != fi {
					st.addPair(t, i, j, w, workers, uint64(a)<<32|uint64(b))
				}
			}
			continue
		}
		// Sparse self-join: count co-occurrences with later kept slices
		// through the posting lists; partners are those sharing exactly L-2
		// columns (the = (L-2) comparison on SSᵀ). Each list is ascending,
		// so the later slices follow a's own entry.
		t.touched = t.touched[:0]
		for x, c := range cols[i] {
			for _, b := range g.post[g.at[a*(L-1)+x]+1 : g.postStart[c+1]] {
				if t.stamp[b] != int32(a) {
					t.stamp[b] = int32(a)
					t.counts[b] = 0
					t.touched = append(t.touched, b)
				}
				t.counts[b]++
			}
		}
		for k, b := range t.touched {
			if t.counts[b] == int32(L-2) {
				st.addPair(t, i, keep[b], w, workers, uint64(a)<<32|uint64(k))
			}
		}
	}
	g.total.Add(int64(len(t.dead) - flushed))
	st.prune(t)
}

// addPair merges the compatible pair (i, j) into the candidate it generates,
// unless another worker owns that candidate.
func (st *state) addPair(t *genTable, i, j, w, workers int, seq uint64) {
	g := st.gen
	prev := g.prev
	u := mergeCols(t.buf[:0], prev.cols[i], prev.cols[j], g.L)
	if u == nil {
		return
	}
	var h uint64
	if g.dedup {
		h = hashCols(u)
		// The high hash bits pick the owner; the low ones index its slots.
		if int((h>>32)*uint64(workers)>>32) != w {
			return
		}
	}
	// Reject unions where two columns map to the same original feature
	// (step 3's rowSums(P[,beg:end]) <= 1 check).
	if !st.featuresDisjoint(u) {
		return
	}
	t.npairs++
	ss := math.Min(prev.ss[i], prev.ss[j])
	se := math.Min(prev.se[i], prev.se[j])
	sm := math.Min(prev.sm[i], prev.sm[j])
	if !g.dedup {
		// No dedup matrix M needed: either the ablation disabled it
		// (config 5: every pair is its own candidate, bounds from its two
		// parents only), or L == 2, where the 2-column union uniquely
		// identifies its basic-slice pair so no duplicates can arise and
		// both parents are always enumerated (np = 2 = L).
		if dead, bySize := st.pairDead(ss, se, sm); dead {
			if bySize {
				t.pr.pairSize++
			} else {
				t.pr.pairScore++
			}
			return
		}
		t.add(u, ss, se, sm, seq)
		return
	}
	k := t.find(u, h, seq)
	t.pairs[k]++
	if t.dead[k] {
		return // the group bound can only be tighter
	}
	if dead, _ := st.pairDead(ss, se, sm); dead {
		t.dead[k] = true
		return
	}
	if ss < t.ssUB[k] {
		t.ssUB[k] = ss
	}
	if se < t.seUB[k] {
		t.seUB[k] = se
	}
	if sm < t.smUB[k] {
		t.smUB[k] = sm
	}
}

// pairDead applies the bounds of one pair: a candidate's bound is the min
// over all its pairs, so one failing pair condemns it. Only enabled pruning
// rules apply.
func (st *state) pairDead(ss, se, sm float64) (dead, bySize bool) {
	if !st.cfg.DisableSizePruning && ss < float64(st.cfg.Sigma) {
		return true, true
	}
	if !st.cfg.DisableScorePruning {
		ub := st.sc.upperBound(ss, se, sm)
		return ub <= st.gen.sck || ub < 0, false
	}
	return false, false
}

// prune applies the group-level pruning of Equation 9 to t's groups and
// collects the survivors.
func (st *state) prune(t *genTable) {
	cfg, L := st.cfg, st.gen.L
	sigma := float64(cfg.Sigma)
	parentCheck := st.gen.dedup && !cfg.DisableParentHandling
	t.surv, t.ub = t.surv[:0], t.ub[:0]
	for k := range t.dead {
		if t.dead[k] {
			t.pr.dead++
			continue
		}
		if !cfg.DisableSizePruning && t.ssUB[k] < sigma {
			t.pr.size++
			continue
		}
		ub := st.sc.upperBound(t.ssUB[k], t.seUB[k], t.smUB[k])
		if !cfg.DisableScorePruning && (ub <= st.gen.sck || ub < 0) {
			t.pr.score++
			continue
		}
		// Missing-parent handling: a level-L slice has L parents; if any was
		// pruned earlier, every extension is prunable too. The kept slices
		// are distinct, and any two of a group's kept parents share exactly
		// L-2 columns, so the join enumerates each such pair once (a < b):
		// k kept parents yield C(k,2) pairs, and np == L exactly when
		// pairs == L(L-1)/2.
		if parentCheck && int(t.pairs[k]) != L*(L-1)/2 {
			t.pr.parents++
			continue
		}
		t.surv = append(t.surv, int32(k))
		t.ub = append(t.ub, ub)
	}
}

// reset empties t for a level of L-column candidates joined from nkeep
// slices, keeping its buffers.
func (t *genTable) reset(L, nkeep int) {
	t.cols = t.cols[:0]
	t.ssUB, t.seUB, t.smUB = t.ssUB[:0], t.seUB[:0], t.smUB[:0]
	t.pairs, t.dead, t.seq = t.pairs[:0], t.dead[:0], t.seq[:0]
	clear(t.slots)
	t.pr, t.npairs = pruneStats{}, 0
	t.counts = resize32(t.counts, nkeep)
	t.stamp = resize32(t.stamp, nkeep)
	for b := range t.stamp {
		t.stamp[b] = -1
	}
	if cap(t.buf) < L+1 {
		t.buf = make([]int, 0, L+1)
	}
}

// add appends a group with columns u and the given bounds, returning its
// index.
func (t *genTable) add(u []int, ss, se, sm float64, seq uint64) int {
	if len(t.dead) == cap(t.dead) {
		t.reserve(len(u))
	}
	t.cols = append(t.cols, u...)
	t.ssUB = append(t.ssUB, ss)
	t.seUB = append(t.seUB, se)
	t.smUB = append(t.smUB, sm)
	t.pairs = append(t.pairs, 0)
	t.dead = append(t.dead, false)
	t.seq = append(t.seq, seq)
	return len(t.dead) - 1
}

// reserve doubles the group capacity of every array at once; append alone
// grows large slices by 1.25×, copying each array about five times over.
func (t *genTable) reserve(L int) {
	n := max(2*cap(t.dead), 1024)
	t.cols = slices.Grow(t.cols, n*L-len(t.cols))
	t.ssUB = slices.Grow(t.ssUB, n-len(t.ssUB))
	t.seUB = slices.Grow(t.seUB, n-len(t.seUB))
	t.smUB = slices.Grow(t.smUB, n-len(t.smUB))
	t.pairs = slices.Grow(t.pairs, n-len(t.pairs))
	t.dead = slices.Grow(t.dead, n-len(t.dead))
	t.seq = slices.Grow(t.seq, n-len(t.seq))
}

// find returns the group with columns u (hash h), adding it with neutral
// bounds and first-seen position seq when absent.
func (t *genTable) find(u []int, h, seq uint64) int {
	if 2*(len(t.dead)+1) > len(t.slots) {
		t.grow(len(u))
	}
	L, mask := len(u), uint64(len(t.slots)-1)
	for s := h & mask; ; s = (s + 1) & mask {
		e := t.slots[s]
		if e == 0 {
			t.slots[s] = int32(len(t.dead) + 1)
			return t.add(u, math.Inf(1), math.Inf(1), math.Inf(1), seq)
		}
		if g := int(e - 1); equalCols(t.cols[g*L:(g+1)*L], u) {
			return g
		}
	}
}

// grow doubles the slot table and reinserts every group of width L.
func (t *genTable) grow(L int) {
	n := 2 * len(t.slots)
	if n < 256 {
		n = 256
	}
	t.slots = make([]int32, n)
	mask := uint64(n - 1)
	for g := range t.dead {
		s := hashCols(t.cols[g*L:(g+1)*L]) & mask
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = int32(g + 1)
	}
}

// hashCols hashes a sorted column tuple — the role of the paper's
// overflow-free ND-array slice IDs: one FNV-1a step per whole column id,
// finished with the splitmix64 avalanche so that the low bits (slot) and the
// high bits (owning worker) are both well mixed.
func hashCols(u []int) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range u {
		h = (h ^ uint64(c)) * 1099511628211
	}
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// resize32 returns s resized to n, reallocating only when it lacks capacity.
// The contents are unspecified.
func resize32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
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

// mergeCols merges two sorted column lists into dst[:0], returning nil if
// the union does not have exactly want entries. With cap(dst) > want it does
// not allocate.
func mergeCols(dst, a, b []int, want int) []int {
	out := dst[:0]
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
	if len(out)+len(a)-i+len(b)-j != want {
		return nil
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
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
