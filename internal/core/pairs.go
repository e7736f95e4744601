package core

import (
	"math"
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
	L     int
	sck   float64
	dedup bool // pairs are deduplicated into candidates (L > 2, dedup enabled)
	// The slices of the previous level that take part in the join, by keep
	// position: their columns, indexed by tuple, and their statistics.
	kept       keptIndex
	ss, se, sm []float64
	// Per-column posting lists over keep positions (L > 2):
	// post[postStart[c]:postStart[c+1]] lists, ascending, the positions a
	// whose slice contains column c, and at[a*(L-1)+x] is the index in post
	// of a itself within the list of its x-th column.
	postStart, post, at []int32

	chunks  []genChunk   // one per contiguous range of keep positions
	workers []genWorker  // one per worker
	next    atomic.Int64 // the next chunk to take
	total   atomic.Int64 // groups formed by all workers so far
	wg      sync.WaitGroup
}

// genChunk is what the join over one contiguous range of keep positions
// produced: its surviving candidates in first-seen order, with flat columns
// and score upper bounds, and its counts.
type genChunk struct {
	cols   []int
	ub     []float64
	pr     pruneStats
	npairs int // compatible, feature-disjoint pairs
	groups int // candidates formed, the count the budget bounds
}

// genWorker is one worker's join scratch: per kept position b, the columns
// it shares with the current a (valid while stamp[b] == a), the positions
// touched, the union of the current pair, one (L-1)-subset of it, and the
// keep positions of the union's kept parents.
type genWorker struct {
	counts, stamp, touched []int32
	buf, sub, par          []int
}

// chunksPerWorker splits the join into more ranges than workers, so that a
// worker that drew light ranges takes over the rest: the work per kept slice
// falls with its position, as later slices have fewer later partners.
const chunksPerWorker = 8

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
//  4. deduplicate (L > 2): every pair of a candidate's kept parents is
//     compatible, so the join meets each candidate once per such pair. The
//     candidate is formed once, at its first-seen pair, where its other
//     parents are looked up by column tuple among the kept slices (the
//     paper's ND-array IDs; here a hash index, keptIndex). Its bounds are
//     the minima over its kept parents and np is their count, and
//  5. prune by Equation 9: ⌈ss⌉ >= σ ∧ ⌈sc⌉ > sc_k ∧ ⌈sc⌉ >= 0 ∧ np = L.
//
// The join is split into contiguous ranges of keep positions that
// matrix.MaxWorkers goroutines take in turn. Each range keeps its survivors
// in join order, and the ranges are concatenated in order, so the output is
// the serial first-seen order at any worker count. It returns the surviving
// candidates and a per-rule pruning breakdown, and records the group, pair
// and worker counts on sp. A nil level signals that candidate generation
// exceeded MaxCandidatesPerLevel and enumeration must truncate.
func (st *state) pairCandidates(prev *level, L int, sck float64, sp *obs.Span) (*level, pruneStats) {
	cfg := st.cfg
	if st.gen == nil {
		st.gen = &generator{}
	}
	g := st.gen
	g.L, g.sck = L, sck
	g.dedup = L > 2 && !cfg.DisableDedup

	// Step 1: input filtering.
	minSS := float64(cfg.Sigma)
	if cfg.DisableSizePruning {
		minSS = 1
	}
	g.kept.reset(L-1, prev.size())
	g.ss, g.se, g.sm = g.ss[:0], g.se[:0], g.sm[:0]
	for i := range prev.cols {
		if prev.ss[i] >= minSS && prev.se[i] > 0 {
			g.kept.add(prev.cols[i])
			g.ss = append(g.ss, prev.ss[i])
			g.se = append(g.se, prev.se[i])
			g.sm = append(g.sm, prev.sm[i])
		}
	}
	nkeep := len(g.ss)
	if L > 2 {
		g.buildPostings(len(st.featOf))
	}

	nchunks := min(nkeep, chunksPerWorker*matrix.MaxWorkers())
	workers := max(1, min(matrix.MaxWorkers(), nchunks))
	for len(g.chunks) < nchunks {
		g.chunks = append(g.chunks, genChunk{})
	}
	for len(g.workers) < workers {
		g.workers = append(g.workers, genWorker{})
	}
	chunks := g.chunks[:nchunks]
	for k := range chunks {
		chunks[k].reset()
	}
	g.next.Store(0)
	g.total.Store(0)
	for w := 1; w < workers; w++ {
		g.wg.Add(1)
		go func(wk *genWorker) {
			defer g.wg.Done()
			st.generate(wk, nchunks)
		}(&g.workers[w])
	}
	st.generate(&g.workers[0], nchunks)
	g.wg.Wait()

	groups, npairs := g.total.Load(), 0
	for k := range chunks {
		npairs += chunks[k].npairs
	}
	sp.SetInt("groups", groups)
	sp.SetInt("pairs", int64(npairs))
	sp.SetInt("workers", int64(workers))
	if groups > int64(cfg.MaxCandidatesPerLevel) {
		return nil, pruneStats{}
	}

	var pr pruneStats
	n := 0
	for k := range chunks {
		pr.add(chunks[k].pr)
		n += len(chunks[k].ub)
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
	// Concatenate the chunks' survivors in chunk order.
	flat := make([]int, n*L)
	k := 0
	for c := range chunks {
		copy(flat[k*L:], chunks[c].cols)
		if out.ub != nil {
			copy(out.ub[k:], chunks[c].ub)
		}
		k += len(chunks[c].ub)
	}
	for k := range out.cols {
		out.cols[k] = flat[k*L : (k+1)*L : (k+1)*L]
	}
	return out, pr
}

// buildPostings fills the per-column posting lists of the kept slices by a
// counting sort over their columns.
func (g *generator) buildPostings(ncols int) {
	cols := g.kept.cols
	g.postStart = resize32(g.postStart, ncols+1)
	clear(g.postStart)
	for _, c := range cols {
		g.postStart[c+1]++
	}
	for c := 0; c < ncols; c++ {
		g.postStart[c+1] += g.postStart[c]
	}
	g.post = resize32(g.post, len(cols))
	g.at = resize32(g.at, len(cols))
	// Fill with postStart[c] as the cursor of column c, which leaves it at
	// the start of column c+1; shift back afterwards. The x-th column of
	// keep position a is cols[a*(L-1)+x].
	L1 := g.L - 1
	for ax, c := range cols {
		p := g.postStart[c]
		g.post[p] = int32(ax / L1)
		g.at[ax] = p
		g.postStart[c] = p + 1
	}
	copy(g.postStart[1:], g.postStart[:ncols])
	g.postStart[0] = 0
}

// generate runs one worker: it takes the chunks in turn and joins each,
// until no chunk is left or the candidate budget is exceeded. It works on
// local copies of its scratch and of the chunk at hand, so that no two
// workers write to one cache line.
func (st *state) generate(w *genWorker, nchunks int) {
	g := st.gen
	nkeep := len(g.ss)
	wk := *w
	wk.reset(g.L, nkeep)
	for {
		k := int(g.next.Add(1) - 1)
		if k >= nchunks || g.total.Load() > int64(st.cfg.MaxCandidatesPerLevel) {
			break
		}
		c := g.chunks[k]
		within := st.joinChunk(&c, &wk, k*nkeep/nchunks, (k+1)*nkeep/nchunks)
		g.chunks[k] = c
		if !within {
			break
		}
	}
	*w = wk
}

// joinChunk joins each kept position a in [lo, hi) with its later partners
// b, in the serial join order. It stops early and reports false once the
// groups of all workers exceed the candidate budget.
func (st *state) joinChunk(c *genChunk, wk *genWorker, lo, hi int) bool {
	g := st.gen
	L, nkeep, cols := g.L, len(g.ss), g.kept.cols
	limit := int64(st.cfg.MaxCandidatesPerLevel)
	for a := lo; a < hi; a++ {
		before := c.groups
		if L == 2 {
			// Basic slices overlap in L-2 = 0 predicates: every
			// cross-feature pair is compatible.
			fi := st.featOf[cols[a]]
			for b := a + 1; b < nkeep; b++ {
				if st.featOf[cols[b]] != fi {
					st.addPair(c, wk, a, b)
				}
			}
		} else {
			// Sparse self-join: count co-occurrences with later kept slices
			// through the posting lists; partners are those sharing exactly
			// L-2 columns (the = (L-2) comparison on SSᵀ). Each list is
			// ascending, so the later slices follow a's own entry.
			wk.touched = wk.touched[:0]
			for x, col := range g.kept.tuple(a) {
				for _, b := range g.post[g.at[a*(L-1)+x]+1 : g.postStart[col+1]] {
					if wk.stamp[b] != int32(a) {
						wk.stamp[b] = int32(a)
						wk.counts[b] = 0
						wk.touched = append(wk.touched, b)
					}
					wk.counts[b]++
				}
			}
			for _, b := range wk.touched {
				if wk.counts[b] == int32(L-2) {
					st.addPair(c, wk, a, int(b))
				}
			}
		}
		// The budget is checked on the groups of all workers: the running
		// total only grows, so once it exceeds the budget the final total
		// does too.
		if d := c.groups - before; d > 0 && g.total.Add(int64(d)) > limit {
			return false
		}
	}
	return true
}

// addPair handles the compatible pair of kept positions a < b: without
// deduplication the pair is its own candidate; with it, the pair forms the
// candidate of its union only if it is the union's first-seen pair.
func (st *state) addPair(c *genChunk, wk *genWorker, a, b int) {
	g := st.gen
	u := mergeCols(wk.buf[:0], g.kept.tuple(a), g.kept.tuple(b), g.L)
	// Reject unions where two columns map to the same original feature
	// (step 3's rowSums(P[,beg:end]) <= 1 check).
	if u == nil || !st.featuresDisjoint(u) {
		return
	}
	if g.dedup {
		if par := st.firstSeenParents(wk, u, a, b); par != nil {
			c.npairs += len(par) * (len(par) - 1) / 2
			c.groups++
			st.pruneGroup(c, u, par)
		}
		return
	}
	// No dedup matrix M needed: either the ablation disabled it (config 5:
	// every pair is its own candidate, bounds from its two parents only), or
	// L == 2, where the 2-column union uniquely identifies its basic-slice
	// pair so no duplicates can arise and both parents are always
	// enumerated (np = 2 = L).
	c.npairs++
	ss := math.Min(g.ss[a], g.ss[b])
	se := math.Min(g.se[a], g.se[b])
	sm := math.Min(g.sm[a], g.sm[b])
	if dead, bySize := st.pairDead(ss, se, sm); dead {
		if bySize {
			c.pr.pairSize++
		} else {
			c.pr.pairScore++
		}
		return
	}
	c.groups++
	c.emit(u, st.sc.upperBound(ss, se, sm))
}

// firstSeenParents returns the keep positions of the kept parents of u, the
// union of the kept positions a < b, or nil if an earlier pair of the serial
// join also forms u. Any two kept parents of u share L-2 columns, so the join
// meets u at each of their pairs, ordered by a, then by a's touched order:
// first the partners that contain a's first column, then those that lack
// it, each by keep position. Hence (a, b) is u's first-seen pair when no
// other kept parent precedes a and none precedes b in a's touched order.
func (st *state) firstSeenParents(wk *genWorker, u []int, a, b int) []int {
	g := st.gen
	ca, cb := g.kept.tuple(a), g.kept.tuple(b)
	// The parent without u[r] is u minus u[r]: a lacks u[p], b lacks u[q].
	p, q := missingCol(ca, u), missingCol(cb, u)
	first := ca[0]
	bLacks := u[q] == first
	par := append(wk.par[:0], a, b)
	for r := range u {
		if r == p || r == q {
			continue
		}
		sub := append(append(wk.sub[:0], u[:r]...), u[r+1:]...)
		pos := g.kept.find(sub)
		if pos < 0 {
			continue // a pruned parent
		}
		if lacks := u[r] == first; pos < a || lacks == bLacks && pos < b || bLacks && !lacks {
			return nil
		}
		par = append(par, pos)
	}
	wk.par = par
	return par
}

// missingCol returns the index in the sorted union u of the one column that
// its sorted (len(u)-1)-subset s lacks.
func missingCol(s, u []int) int {
	for k, c := range s {
		if c != u[k] {
			return k
		}
	}
	return len(s)
}

// pruneGroup applies Equation 9 to the candidate u, whose kept parents are
// the keep positions par, and keeps it in c if it survives.
func (st *state) pruneGroup(c *genChunk, u, par []int) {
	cfg, g := st.cfg, st.gen
	// A candidate's bound is the min over all its parent pairs, so one
	// failing pair condemns it.
	for x, i := range par {
		for _, j := range par[x+1:] {
			ss := math.Min(g.ss[i], g.ss[j])
			se := math.Min(g.se[i], g.se[j])
			sm := math.Min(g.sm[i], g.sm[j])
			if dead, _ := st.pairDead(ss, se, sm); dead {
				c.pr.dead++
				return
			}
		}
	}
	ss, se, sm := math.Inf(1), math.Inf(1), math.Inf(1)
	for _, i := range par {
		ss = math.Min(ss, g.ss[i])
		se = math.Min(se, g.se[i])
		sm = math.Min(sm, g.sm[i])
	}
	if !cfg.DisableSizePruning && ss < float64(cfg.Sigma) {
		c.pr.size++
		return
	}
	ub := st.sc.upperBound(ss, se, sm)
	if !cfg.DisableScorePruning && (ub <= g.sck || ub < 0) {
		c.pr.score++
		return
	}
	// Missing-parent handling: a level-L slice has L parents; if any was
	// pruned earlier, every extension is prunable too.
	if !cfg.DisableParentHandling && len(par) != g.L {
		c.pr.parents++
		return
	}
	c.emit(u, ub)
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

// reset empties c for a new level, keeping its buffers.
func (c *genChunk) reset() {
	c.cols, c.ub = c.cols[:0], c.ub[:0]
	c.pr, c.npairs, c.groups = pruneStats{}, 0, 0
}

// emit keeps the candidate u with score upper bound ub.
func (c *genChunk) emit(u []int, ub float64) {
	c.cols = append(c.cols, u...)
	c.ub = append(c.ub, ub)
}

// reset prepares wk for a join over nkeep kept slices into L-column unions,
// keeping its buffers.
func (wk *genWorker) reset(L, nkeep int) {
	wk.counts = resize32(wk.counts, nkeep)
	wk.stamp = resize32(wk.stamp, nkeep)
	for b := range wk.stamp {
		wk.stamp[b] = -1
	}
	if cap(wk.buf) < L+1 {
		wk.buf = make([]int, 0, L+1)
		wk.sub = make([]int, 0, L)
		wk.par = make([]int, 0, L)
	}
}

// keptIndex holds the kept slices of the previous level as flat column
// tuples and finds one by its sorted tuple — the role of the paper's
// ND-array slice IDs — in an open-addressing hash index probed linearly from
// hashCols. The tuple at keep position p is cols[p*w:(p+1)*w], and slots
// holds positions+1 (0 = empty). It has one entry per kept slice, far fewer
// than the candidates it identifies, so it stays cache-resident.
type keptIndex struct {
	w     int
	cols  []int
	slots []int32
}

// reset empties x for up to n distinct tuples of width w, keeping its
// buffers; the slot table stays at most half full.
func (x *keptIndex) reset(w, n int) {
	x.w, x.cols = w, x.cols[:0]
	size := 256
	for size < 2*n {
		size *= 2
	}
	x.slots = resize32(x.slots, size)
	clear(x.slots)
}

// add appends u at the next keep position and indexes it. Among equal
// tuples, which only the no-dedup ablation produces, find returns the first.
func (x *keptIndex) add(u []int) {
	p := len(x.cols) / x.w
	x.cols = append(x.cols, u...)
	mask := uint64(len(x.slots) - 1)
	s := hashCols(u) & mask
	for x.slots[s] != 0 {
		s = (s + 1) & mask
	}
	x.slots[s] = int32(p + 1)
}

// tuple returns the tuple at keep position p.
func (x *keptIndex) tuple(p int) []int {
	return x.cols[p*x.w : (p+1)*x.w : (p+1)*x.w]
}

// find returns the keep position of u, or -1 if u is not a kept slice.
func (x *keptIndex) find(u []int) int {
	mask := uint64(len(x.slots) - 1)
	for s := hashCols(u) & mask; ; s = (s + 1) & mask {
		e := int(x.slots[s])
		if e == 0 {
			return -1
		}
		if p := e - 1; equalCols(x.cols[p*x.w:(p+1)*x.w], u) {
			return p
		}
	}
}

// hashCols hashes a sorted column tuple — the role of the paper's
// overflow-free ND-array slice IDs: one FNV-1a step per whole column id,
// finished with the splitmix64 avalanche so that the low bits, which pick
// the slot, are well mixed.
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
