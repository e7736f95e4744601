package core

import (
	"context"
	"math/rand"
	"testing"

	"sliceline/internal/frame"
	"sliceline/internal/matrix"
)

// benchEvalData builds a one-hot encoded random dataset plus the candidate
// list at the requested level — all cross-feature column pairs at level 2,
// all cross-feature triples at level 3 — the workload of the hottest
// enumeration levels. It also sizes the benchmark via b.SetBytes(rows) so
// `go test -bench` reports throughput in rows/s (as MB/s with 1 byte = 1 row).
func benchEvalData(b *testing.B, n, m, maxDom, level int) (*matrix.CSR, []float64, [][]int) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	ds, e := randomDataset(rng, n, m, maxDom)
	enc, err := frame.OneHot(ds)
	if err != nil {
		b.Fatal(err)
	}
	var cols [][]int
	for c1 := 0; c1 < enc.Width(); c1++ {
		for c2 := c1 + 1; c2 < enc.Width(); c2++ {
			if enc.FeatureOf(c1) == enc.FeatureOf(c2) {
				continue
			}
			if level == 2 {
				cols = append(cols, []int{c1, c2})
				continue
			}
			for c3 := c2 + 1; c3 < enc.Width(); c3++ {
				if enc.FeatureOf(c3) != enc.FeatureOf(c1) && enc.FeatureOf(c3) != enc.FeatureOf(c2) {
					cols = append(cols, []int{c1, c2, c3})
				}
			}
		}
	}
	b.SetBytes(int64(n))
	return enc.X, e, cols
}

func benchWeights(e []float64, weighted bool) []float64 {
	if !weighted {
		return nil
	}
	w := make([]float64, len(e))
	for i := range w {
		w[i] = 1 + float64(i%3)
	}
	return w
}

// benchEvalPartition drives the fused sparse kernel at one block size. The
// allocation report guards the kernel's steady-state footprint: the block
// index and partial vectors are the only expected allocations, and a
// regression here multiplies across every level of every run.
func benchEvalPartition(b *testing.B, blockSize, level int, weighted bool) {
	x, e, cols := benchEvalData(b, 2000, 6, 5, level)
	w := benchWeights(e, weighted)
	ss := make([]float64, len(cols))
	se := make([]float64, len(cols))
	sm := make([]float64, len(cols))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ss {
			ss[j], se[j], sm[j] = 0, 0, 0
		}
		EvalPartitionWeighted(x, e, w, cols, level, blockSize, ss, se, sm)
	}
}

func BenchmarkEvalPartitionBlock1(b *testing.B)   { benchEvalPartition(b, 1, 2, false) }
func BenchmarkEvalPartitionBlock16(b *testing.B)  { benchEvalPartition(b, 16, 2, false) }
func BenchmarkEvalPartitionBlockAll(b *testing.B) { benchEvalPartition(b, 1<<30, 2, false) }
func BenchmarkEvalPartitionWeighted(b *testing.B) { benchEvalPartition(b, 16, 2, true) }
func BenchmarkEvalPartitionTriplesL3(b *testing.B) {
	benchEvalPartition(b, 16, 3, false)
}

// binaryErrors thresholds e to 0/1, the error of a classifier.
func binaryErrors(e []float64) []float64 {
	out := make([]float64, len(e))
	for i, v := range e {
		if v > 0.5 {
			out[i] = 1
		}
	}
	return out
}

// benchEvalBitset drives the packed-bitset kernel over the same candidate
// lists, with real, weighted or 0/1 errors. Packing happens once outside the
// timed loop, matching how the Kernel caches its ColumnBits across levels of
// a run.
func benchEvalBitset(b *testing.B, level int, weighted, binary bool) {
	x, e, cols := benchEvalData(b, 2000, 6, 5, level)
	w := benchWeights(e, weighted)
	if binary {
		e = binaryErrors(e)
	}
	k := NewKernel(x, e, w, BitsetOn)
	k.Bits()
	ss := make([]float64, len(cols))
	se := make([]float64, len(cols))
	sm := make([]float64, len(cols))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ss {
			ss[j], se[j], sm[j] = 0, 0, 0
		}
		k.EvalBitsetSerial(cols, ss, se, sm)
	}
}

func BenchmarkEvalBitsetPairsL2(b *testing.B)    { benchEvalBitset(b, 2, false, false) }
func BenchmarkEvalBitsetTriplesL3(b *testing.B)  { benchEvalBitset(b, 3, false, false) }
func BenchmarkEvalBitsetWeightedL2(b *testing.B) { benchEvalBitset(b, 2, true, false) }
func BenchmarkEvalBitsetBinaryL3(b *testing.B)   { benchEvalBitset(b, 3, false, true) }

// TestEvalBitsetSerialZeroAlloc pins the bitset level loop's steady-state
// allocation count at exactly zero — the property the committed bench
// baseline gates in CI, asserted here so a plain `go test` catches it too.
func TestEvalBitsetSerialZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds, e := randomDataset(rng, 500, 5, 4)
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][]int
	for c1 := 0; c1 < enc.Width(); c1++ {
		for c2 := c1 + 1; c2 < enc.Width(); c2++ {
			if enc.FeatureOf(c1) != enc.FeatureOf(c2) {
				pairs = append(pairs, []int{c1, c2})
			}
		}
	}
	ss := make([]float64, len(pairs))
	se := make([]float64, len(pairs))
	sm := make([]float64, len(pairs))
	for name, k := range map[string]*Kernel{
		"unweighted": NewKernel(enc.X, e, nil, BitsetOn),
		"weighted":   NewKernel(enc.X, e, benchWeights(e, true), BitsetOn),
		"binary":     NewKernel(enc.X, binaryErrors(e), nil, BitsetOn),
	} {
		k.Bits()
		allocs := testing.AllocsPerRun(20, func() {
			k.EvalBitsetSerial(pairs, ss, se, sm)
		})
		if allocs != 0 {
			t.Errorf("%s: EvalBitsetSerial allocates %.1f per op, want 0", name, allocs)
		}
	}
}

// benchEvalRun measures a full enumeration through the fused sparse kernel,
// the dense chunked kernel, or the packed-bitset kernel (the Section 4.4
// comparison plus this repo's bitset path).
func benchEvalRun(b *testing.B, dense bool, bitset BitsetMode) {
	rng := rand.New(rand.NewSource(8))
	ds, e := randomDataset(rng, 2000, 5, 4)
	cfg := Config{K: 4, Sigma: 20, Alpha: 0.95, DenseEval: dense, BitsetEval: bitset}
	b.SetBytes(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), Input{DS: ds, E: e}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalRunFused(b *testing.B)  { benchEvalRun(b, false, BitsetOff) }
func BenchmarkEvalRunDense(b *testing.B)  { benchEvalRun(b, true, BitsetOff) }
func BenchmarkEvalRunBitset(b *testing.B) { benchEvalRun(b, false, BitsetOn) }
