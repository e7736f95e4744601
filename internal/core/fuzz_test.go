package core

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"sliceline/internal/fptol"
)

// FuzzScorerUpperBound checks the soundness of the Equation 3 pruning bound:
// for ANY feasible child slice — size in [sigma, ssUB], total error at most
// min(seUB, size*smUB) — the child's true score must not exceed the upper
// bound computed from the parent minima. An unsound bound would silently
// prune slices that belong in the top-K; this property is exactly what makes
// SliceLine's pruning result-preserving.
func FuzzScorerUpperBound(f *testing.F) {
	f.Add(uint16(1000), uint16(500), uint8(32), uint16(300), uint16(200), uint16(400), uint8(100), uint8(200))
	f.Add(uint16(64), uint16(999), uint8(1), uint16(64), uint16(999), uint16(999), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, n16, te16 uint16, sig8 uint8, ssRaw, seRaw, smRaw uint16, childSSRaw, childSERaw uint8) {
		n := 1 + float64(n16)
		totalErr := float64(te16) / 64 // 0 .. ~1024, includes exact 0
		sigma := float64(1 + int(sig8)%64)
		if sigma > n {
			sigma = n
		}
		sc := scorer{n: n, totalErr: totalErr, avgErr: totalErr / n, alpha: 0.05 + 0.95*float64(sig8)/255, sigma: sigma}

		// Parent minima: ssUB in [0, n], seUB in [0, totalErr], smUB in [0, 1].
		ssUB := n * float64(ssRaw) / 65535
		seUB := totalErr * float64(seRaw) / 65535
		smUB := float64(smRaw) / 65535
		ub := sc.upperBound(ssUB, seUB, smUB)

		if ssUB < sigma {
			// No feasible child exists; the bound must reject everything.
			if ub != -math.MaxFloat64 {
				t.Fatalf("ssUB %v < sigma %v but upper bound %v is not the rejection value", ssUB, sigma, ub)
			}
			return
		}
		// A feasible child: clamp the fuzzed size and error into the region
		// the bound promises to dominate.
		childSS := sigma + (ssUB-sigma)*float64(childSSRaw)/255
		seCap := seUB
		if c := childSS * smUB; c < seCap {
			seCap = c
		}
		childSE := seCap * float64(childSERaw) / 255
		score := sc.score(childSS, childSE)
		if score > ub && !fptol.DefaultTol.Close(score, ub) {
			t.Fatalf("bound unsound: child (ss=%v se=%v) scores %v > upper bound %v (parents ssUB=%v seUB=%v smUB=%v, alpha=%v sigma=%v n=%v avgErr=%v)",
				childSS, childSE, score, ub, ssUB, seUB, smUB, sc.alpha, sigma, n, sc.avgErr)
		}
	})
}

// FuzzTopK checks the top-K accumulator invariants under arbitrary offer
// sequences: at most K entries, scores strictly positive and descending,
// sizes at or above sigma, the threshold equal to the last retained score,
// and no slice identity occupying two slots with identical score — the
// dedup-disabled duplication guard.
func FuzzTopK(f *testing.F) {
	f.Add(uint8(3), uint8(2), []byte{10, 1, 8, 20, 2, 9, 10, 1, 8})
	f.Fuzz(func(t *testing.T, k8, sig8 uint8, data []byte) {
		k := 1 + int(k8)%8
		sigma := float64(1 + int(sig8)%5)
		tk := newTopK(k, sigma)
		for i := 0; i+2 < len(data); i += 3 {
			score := float64(data[i])/16 - 1 // includes zero and negatives
			cols := []int{int(data[i+1]) % 6, 6 + int(data[i+2])%6}
			ss := float64(int(data[i+1])%12) + sigma - 2 // straddles sigma
			se := score * ss
			tk.offer(cols, score, ss, se, 1)
		}
		if len(tk.entries) > k {
			t.Fatalf("%d entries exceed K=%d", len(tk.entries), k)
		}
		for i, e := range tk.entries {
			if e.score <= 0 {
				t.Fatalf("entry %d has non-positive score %v", i, e.score)
			}
			if e.ss < sigma {
				t.Fatalf("entry %d has size %v below sigma %v", i, e.ss, sigma)
			}
			if i > 0 && tk.entries[i-1].score < e.score {
				t.Fatalf("scores not descending at %d: %v after %v", i, e.score, tk.entries[i-1].score)
			}
			for j := i + 1; j < len(tk.entries); j++ {
				o := tk.entries[j]
				if e.score == o.score && equalCols(e.cols, o.cols) {
					t.Fatalf("slice %v occupies slots %d and %d with score %v", e.cols, i, j, e.score)
				}
			}
		}
		th := tk.threshold()
		if len(tk.entries) == k {
			if th != tk.entries[k-1].score {
				t.Fatalf("threshold %v != K-th score %v", th, tk.entries[k-1].score)
			}
		} else if th != 0 {
			t.Fatalf("threshold %v with %d/%d entries, want 0", th, len(tk.entries), k)
		}
	})
}

// FuzzValidateVectors checks the input contract every entry point enforces:
// ValidateVectors accepts exactly when every entry of e and w is finite and
// non-negative and a non-nil w has a positive total, and a rejection wraps
// the sentinel of the vector at fault.
func FuzzValidateVectors(f *testing.F) {
	f.Add(uint8(2), true, floatBytes(0.5, 0, 1, 2))
	f.Add(uint8(1), false, floatBytes(math.NaN()))
	f.Add(uint8(1), true, floatBytes(1, math.Inf(1)))
	f.Add(uint8(1), true, floatBytes(1, 0, math.Copysign(0, -1)))
	f.Add(uint8(0), true, floatBytes(-1e-300, 3))
	f.Fuzz(func(t *testing.T, ne uint8, weighted bool, data []byte) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		k := min(int(ne), len(vals))
		e := vals[:k]
		var w []float64
		if weighted {
			w = vals[k:]
		}
		valid := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 }
		eOK := true
		for _, v := range e {
			eOK = eOK && valid(v)
		}
		wOK := true
		if w != nil {
			positive := false
			for _, v := range w {
				wOK = wOK && valid(v)
				positive = positive || v > 0
			}
			wOK = wOK && positive
		}
		err := ValidateVectors(e, w)
		switch {
		case eOK && wOK:
			if err != nil {
				t.Fatalf("e=%v w=%v rejected: %v", e, w, err)
			}
		case !eOK:
			if !errors.Is(err, ErrBadErrorVector) {
				t.Fatalf("e=%v w=%v: got %v, want ErrBadErrorVector", e, w, err)
			}
		default:
			if !errors.Is(err, ErrBadWeight) {
				t.Fatalf("e=%v w=%v: got %v, want ErrBadWeight", e, w, err)
			}
		}
	})
}

func floatBytes(vs ...float64) []byte {
	b := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}
