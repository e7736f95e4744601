package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sliceline/internal/frame"
	"sliceline/internal/matrix"
)

func TestMergeCols(t *testing.T) {
	cases := []struct {
		a, b []int
		want int
		out  []int
	}{
		{[]int{1, 2}, []int{1, 3}, 3, []int{1, 2, 3}},
		{[]int{1, 2}, []int{3, 4}, 3, nil},   // union 4 > want
		{[]int{1, 2}, []int{1, 2}, 3, nil},   // union 2 < want
		{[]int{0}, []int{5}, 2, []int{0, 5}}, // level-2 join
		{[]int{1, 4, 9}, []int{1, 4, 7}, 4, []int{1, 4, 7, 9}},
	}
	buf := make([]int, 0, 8)
	for i, c := range cases {
		got := mergeCols(nil, c.a, c.b, c.want)
		if !reflect.DeepEqual(got, c.out) {
			t.Errorf("case %d: mergeCols(%v,%v,%d) = %v, want %v", i, c.a, c.b, c.want, got, c.out)
		}
		// Merging into a buffer with room reuses it.
		got = mergeCols(buf, c.a, c.b, c.want)
		if !reflect.DeepEqual(got, c.out) || (got != nil && &got[0] != &buf[:1][0]) {
			t.Errorf("case %d: mergeCols into buffer = %v, want %v in place", i, got, c.out)
		}
	}
}

// TestEncodeColsUniqueAndEqual pins the slice identity of the previous-level
// lookup: every inserted tuple finds its keep position, an absent tuple finds
// none, and different tuples stay distinct, including large column ids (the
// overflow concern behind the paper's ND-array IDs) and across thousands of
// tuples.
func TestEncodeColsUniqueAndEqual(t *testing.T) {
	tuples := [][]int{
		{1, 2}, {1, 3}, {2, 3},
		{1 << 30, 1 << 32}, {1 << 30, 1<<32 + 1}, {1<<30 + 1, 1 << 32},
	}
	for i := 0; i < 3000; i++ {
		tuples = append(tuples, []int{i % 7, 100 + i/7})
		tuples = append(tuples, []int{1<<31 + i, 1<<32 + i})
	}
	var x keptIndex
	x.reset(2, len(tuples))
	for _, u := range tuples {
		x.add(u)
	}
	for p, u := range tuples {
		if got := x.find(u); got != p {
			t.Fatalf("tuple %v inserted at position %d, found at %d", u, p, got)
		}
	}
	for _, u := range [][]int{{1, 4}, {2, 1 << 30}, {1 << 30, 1<<32 + 2}, {6, 99}, {0, 1 << 31}} {
		if got := x.find(u); got != -1 {
			t.Errorf("absent tuple %v found at position %d", u, got)
		}
	}
	// The hash sees whole column ids: no packing of ids into fewer bits.
	if hashCols([]int{1, 2}) == hashCols([]int{1 << 32, 2}) {
		t.Error("ids differing above bit 31 hash equally")
	}
}

func TestFeaturesDisjoint(t *testing.T) {
	st := &state{featOf: []int{0, 0, 1, 1, 2}}
	if !st.featuresDisjoint([]int{0, 2, 4}) {
		t.Error("columns of distinct features reported as clashing")
	}
	if st.featuresDisjoint([]int{0, 1}) {
		t.Error("two columns of feature 0 reported disjoint")
	}
	if st.featuresDisjoint([]int{2, 3, 4}) {
		t.Error("columns 2,3 share feature 1")
	}
}

// genFixture sets up the state of a run over a random n×m dataset with
// domains up to maxDom the way run does before level 2 (all one-hot columns
// kept), and returns it with its evaluated level 1.
func genFixture(tb testing.TB, seed int64, n, m, maxDom int, cfg Config) (*state, *level) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds, e := randomDataset(rng, n, m, maxDom)
	enc, err := frame.OneHot(ds)
	if err != nil {
		tb.Fatal(err)
	}
	cfg = cfg.WithDefaults(n)
	st := &state{
		cfg:    cfg,
		sc:     newScorer(n, e, cfg.Alpha, cfg.Sigma),
		x:      enc.X,
		e:      e,
		kernel: NewKernel(enc.X, e, nil, cfg.BitsetEval),
	}
	lv := &level{}
	for j := 0; j < enc.Width(); j++ {
		st.featOf = append(st.featOf, enc.FeatureOf(j))
		lv.cols = append(lv.cols, []int{j})
	}
	evalLevel(tb, st, lv, 1)
	return st, lv
}

func evalLevel(tb testing.TB, st *state, lv *level, L int) {
	tb.Helper()
	lv.sc = make([]float64, lv.size())
	lv.se = make([]float64, lv.size())
	lv.sm = make([]float64, lv.size())
	lv.ss = make([]float64, lv.size())
	if err := st.evalSlices(context.Background(), lv, L); err != nil {
		tb.Fatal(err)
	}
}

// sameGeneration reports how two pairCandidates results differ, or "".
func sameGeneration(got *level, gotPr pruneStats, want *level, wantPr pruneStats) string {
	if (got == nil) != (want == nil) {
		return fmt.Sprintf("truncated %v, oracle truncated %v", got == nil, want == nil)
	}
	if gotPr != wantPr {
		return fmt.Sprintf("pruneStats %+v, oracle %+v", gotPr, wantPr)
	}
	if got == nil {
		return ""
	}
	if got.size() != want.size() {
		return fmt.Sprintf("%d candidates, oracle %d", got.size(), want.size())
	}
	for k := range got.cols {
		if !equalCols(got.cols[k], want.cols[k]) {
			return fmt.Sprintf("candidate %d is %v, oracle %v", k, got.cols[k], want.cols[k])
		}
		if cap(got.cols[k]) != len(got.cols[k]) {
			return fmt.Sprintf("candidate %d has spare capacity %d", k, cap(got.cols[k]))
		}
	}
	if len(got.ub) != len(want.ub) {
		return fmt.Sprintf("%d upper bounds, oracle %d", len(got.ub), len(want.ub))
	}
	for k := range got.ub {
		if got.ub[k] != want.ub[k] {
			return fmt.Sprintf("ub[%d] = %v, oracle %v", k, got.ub[k], want.ub[k])
		}
	}
	for _, s := range [][]float64{got.sc, got.se, got.sm, got.ss} {
		if len(s) != got.size() {
			return fmt.Sprintf("statistics of length %d for %d candidates", len(s), got.size())
		}
	}
	return ""
}

// TestPairCandidatesMatchOracle runs the lattice of seeded random datasets
// through the chunked, first-seen generator and through the map-based oracle,
// level by level, under every combination of the pruning ablations, with and
// without priority enumeration, at 1, 2, 3, 4 and 7 workers (uneven chunk
// boundaries), with the candidate budget just below, at and above each
// level's group count, and with each level handed on in generation order
// (seed 1) or shuffled (seed 2). Both must agree on the candidates and their order,
// the upper bounds, the per-rule pruning counts and truncation.
func TestPairCandidatesMatchOracle(t *testing.T) {
	defer matrix.SetMaxWorkers(matrix.SetMaxWorkers(1))
	levels := map[int]int{}
	for flags := 0; flags < 16; flags++ {
		for seed := int64(1); seed <= 2; seed++ {
			cfg := Config{
				K: 3, Sigma: 6, Alpha: 0.95,
				DisableSizePruning:    flags&1 != 0,
				DisableScorePruning:   flags&2 != 0,
				DisableParentHandling: flags&4 != 0,
				DisableDedup:          flags&8 != 0,
				// Bounds the duplicate blow-up of the no-dedup ablation.
				MaxCandidatesPerLevel: 2_000,
			}
			st, cur := genFixture(t, seed, 240, 5, 4, cfg)
			tk := newTopK(st.cfg.K, float64(st.cfg.Sigma))
			for i := range cur.cols {
				tk.offer(cur.cols[i], cur.sc[i], cur.ss[i], cur.se[i], cur.sm[i])
			}
			for L := 2; L <= 5 && cur.size() > 0; L++ {
				sck := tk.threshold()
				// check compares the generator at every worker count with the
				// oracle under st.cfg, returning the oracle's result.
				check := func() (*level, int) {
					want, wantPr, groups := st.oraclePairCandidates(cur, L, sck)
					for _, w := range []int{1, 2, 3, 4, 7} {
						matrix.SetMaxWorkers(w)
						got, gotPr := st.pairCandidates(cur, L, sck, nil)
						if d := sameGeneration(got, gotPr, want, wantPr); d != "" {
							t.Fatalf("flags=%04b priority=%v seed=%d budget=%d L%d workers=%d: %s",
								flags, st.cfg.PriorityEnumeration, seed, st.cfg.MaxCandidatesPerLevel, L, w, d)
						}
					}
					return want, groups
				}
				st.cfg.PriorityEnumeration = true
				check()
				st.cfg.PriorityEnumeration = false
				want, groups := check()
				if want == nil {
					break
				}
				levels[L]++
				// The budget rule around the group count N: N-1 truncates, N
				// and N+1 do not.
				budget := st.cfg.MaxCandidatesPerLevel
				for _, max := range []int{groups - 1, groups, groups + 1} {
					if max >= 1 {
						st.cfg.MaxCandidatesPerLevel = max
						check()
					}
				}
				st.cfg.MaxCandidatesPerLevel = budget
				evalLevel(t, st, want, L)
				for i := range want.cols {
					tk.offer(want.cols[i], want.sc[i], want.ss[i], want.se[i], want.sm[i])
				}
				if seed == 2 {
					// Priority enumeration hands the next level over in bound
					// order, not in generation order: the first-seen rule
					// must hold for any order of its input.
					shuffleLevel(rand.New(rand.NewSource(seed+int64(L))), want)
				}
				cur = want
			}
		}
	}
	for L := 2; L <= 5; L++ {
		if levels[L] == 0 {
			t.Errorf("no configuration generated level %d", L)
		}
	}
}

// shuffleLevel permutes the slices of an evaluated level in place.
func shuffleLevel(rng *rand.Rand, lv *level) {
	rng.Shuffle(lv.size(), func(i, j int) {
		lv.cols[i], lv.cols[j] = lv.cols[j], lv.cols[i]
		lv.sc[i], lv.sc[j] = lv.sc[j], lv.sc[i]
		lv.se[i], lv.se[j] = lv.se[j], lv.se[i]
		lv.sm[i], lv.sm[j] = lv.sm[j], lv.sm[i]
		lv.ss[i], lv.ss[j] = lv.ss[j], lv.ss[i]
	})
}

// maxGenAllocs bounds the allocations of one generation on warm scratch:
// the output level (struct, column slices, flat column array, statistics
// and upper bounds), independent of the number of pairs and groups.
const maxGenAllocs = 10

// TestPairCandidatesAllocs pins that candidate generation allocates nothing
// per pair or per group: a level-3 generation over ≥10k groups on one worker
// allocates only its output.
func TestPairCandidatesAllocs(t *testing.T) {
	defer matrix.SetMaxWorkers(matrix.SetMaxWorkers(1))
	st, prev, sck := level3Fixture(t)
	allocs := testing.AllocsPerRun(3, func() {
		if cand, _ := st.pairCandidates(prev, 3, sck, nil); cand == nil {
			t.Fatal("generation truncated")
		}
	})
	if groups := st.gen.total.Load(); groups < 10_000 {
		t.Fatalf("fixture yields %d level-3 groups, want at least 10000", groups)
	}
	if allocs > maxGenAllocs {
		t.Fatalf("level-3 generation allocates %v times, want at most %d", allocs, maxGenAllocs)
	}
}

// level3Fixture returns a state with its evaluated level 2 and the top-K
// threshold after it, on data whose level-3 generation forms ≥10k groups.
func level3Fixture(tb testing.TB) (*state, *level, float64) {
	tb.Helper()
	st, l1 := genFixture(tb, 7, 3000, 14, 6, Config{K: 4, Sigma: 5, Alpha: 0.95})
	tk := newTopK(st.cfg.K, float64(st.cfg.Sigma))
	for i := range l1.cols {
		tk.offer(l1.cols[i], l1.sc[i], l1.ss[i], l1.se[i], l1.sm[i])
	}
	l2, _ := st.pairCandidates(l1, 2, tk.threshold(), nil)
	evalLevel(tb, st, l2, 2)
	for i := range l2.cols {
		tk.offer(l2.cols[i], l2.sc[i], l2.ss[i], l2.se[i], l2.sm[i])
	}
	return st, l2, tk.threshold()
}

var benchLevel *level

func BenchmarkPairCandidatesL2(b *testing.B) {
	st, l1 := genFixture(b, 7, 3000, 12, 6, Config{K: 4, Sigma: 5, Alpha: 0.95})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchLevel, _ = st.pairCandidates(l1, 2, 0, nil)
	}
}

func BenchmarkPairCandidatesL3(b *testing.B) {
	st, l2, sck := level3Fixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchLevel, _ = st.pairCandidates(l2, 3, sck, nil)
	}
}

// oracleGroup accumulates the per-candidate state of the deduplication
// matrix M in the oracle: the minima over all enumerated parents and the set
// of distinct parents (np).
type oracleGroup struct {
	cols    []int
	ssUB    float64
	seUB    float64
	smUB    float64
	parents map[int]struct{}
	dead    bool
}

// encodeCols produces the oracle's canonical string identity of a sorted
// column list: equal slices map to equal keys.
func encodeCols(cols []int) string {
	buf := make([]byte, 4*len(cols))
	for k, c := range cols {
		binary.LittleEndian.PutUint32(buf[4*k:], uint32(c))
	}
	return string(buf)
}

// oraclePairCandidates is the map-based candidate generation that
// pairCandidates replaced: one heap group per candidate keyed by a string
// identity, with an explicit parent set. It also returns the number of
// groups the budget is checked against.
func (st *state) oraclePairCandidates(prev *level, L int, sck float64) (*level, pruneStats, int) {
	cfg := st.cfg

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

	byKey := make(map[string]int)
	var list []*oracleGroup
	var pr pruneStats

	addPair := func(i, j int, union []int) {
		ssUB := math.Min(prev.ss[i], prev.ss[j])
		seUB := math.Min(prev.se[i], prev.se[j])
		smUB := math.Min(prev.sm[i], prev.sm[j])
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
			if dead {
				if deadBySize {
					pr.pairSize++
				} else {
					pr.pairScore++
				}
				return
			}
			list = append(list, &oracleGroup{cols: union, ssUB: ssUB, seUB: seUB, smUB: smUB})
			return
		}
		key := encodeCols(union)
		idx, ok := byKey[key]
		if !ok {
			idx = len(list)
			byKey[key] = idx
			list = append(list, &oracleGroup{cols: union, ssUB: math.Inf(1), seUB: math.Inf(1), smUB: math.Inf(1),
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
		for a := 0; a < len(keep); a++ {
			if len(list) > cfg.MaxCandidatesPerLevel {
				return nil, pruneStats{}, len(list)
			}
			i := keep[a]
			fi := st.featOf[prev.cols[i][0]]
			for b := a + 1; b < len(keep); b++ {
				j := keep[b]
				if st.featOf[prev.cols[j][0]] == fi {
					continue
				}
				union := mergeCols(nil, prev.cols[i], prev.cols[j], L)
				if union != nil {
					addPair(i, j, union)
				}
			}
		}
	} else {
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
				return nil, pruneStats{}, len(list)
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
				union := mergeCols(nil, prev.cols[i], prev.cols[j], L)
				if union == nil {
					continue
				}
				if !st.featuresDisjoint(union) {
					continue
				}
				addPair(i, j, union)
			}
		}
	}

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
	return out, pr, len(list)
}
