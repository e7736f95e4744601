package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"sliceline/internal/benchfmt"
	"sliceline/internal/core"
	"sliceline/internal/datagen"
	"sliceline/internal/frame"
	"sliceline/internal/matrix"
)

// This file measures the eval-kernel benchmark suite behind the committed
// BENCH_<date>.json artifact (slbench -bench-out) and the CI regression gate
// (cmd/slbenchdiff). The gated kernel benchmarks run single-threaded
// (matrix.SetMaxWorkers(1)): allocs/op must not depend on the runner's core
// count, and single-threaded ns/op is far less noisy on shared CI machines.
// The ungated run/* entries measure the end-to-end enumeration at ambient
// parallelism and are informational.

// kernelWorkload is the fixed workload of the gated kernel benchmarks: the
// quick-scale dataset of the core package's eval benchmarks (2000 rows, 6
// features, domains up to 5) with its full cross-feature candidate lists.
// eBin is e thresholded to 0/1, the error of a classifier.
type kernelWorkload struct {
	ds      *frame.Dataset
	x       *matrix.CSR
	e, w    []float64
	eBin    []float64
	pairs   [][]int // all level-2 cross-feature column pairs
	triples [][]int // all level-3 cross-feature column triples
}

// newKernelWorkload generates the workload. The seed fixes the dataset, so
// baseline and candidate gate runs measure identical inputs.
func newKernelWorkload(seed int64) (*kernelWorkload, error) {
	const (
		n      = 2000
		m      = 6
		maxDom = 5
	)
	rng := rand.New(rand.NewSource(seed))
	ds := &frame.Dataset{
		Name:     "kernel-bench",
		X0:       frame.NewIntMatrix(n, m),
		Features: make([]frame.Feature, m),
	}
	for j := 0; j < m; j++ {
		dom := 2 + rng.Intn(maxDom-1)
		ds.Features[j] = frame.Feature{Name: string(rune('a' + j)), Domain: dom}
		for i := 0; i < n; i++ {
			ds.X0.Set(i, j, 1+rng.Intn(dom))
		}
	}
	e := make([]float64, n)
	for i := range e {
		if rng.Float64() < 0.3 {
			e[i] = 0
		} else {
			e[i] = rng.Float64()
		}
	}
	enc, err := frame.OneHot(ds)
	if err != nil {
		return nil, err
	}
	wl := &kernelWorkload{ds: ds, x: enc.X, e: e, w: make([]float64, n), eBin: make([]float64, n)}
	for i := range wl.w {
		wl.w[i] = 1 + float64(i%3)
	}
	for i, v := range e {
		if v > 0.5 {
			wl.eBin[i] = 1
		}
	}
	width := enc.Width()
	for c1 := 0; c1 < width; c1++ {
		for c2 := c1 + 1; c2 < width; c2++ {
			if enc.FeatureOf(c1) == enc.FeatureOf(c2) {
				continue
			}
			wl.pairs = append(wl.pairs, []int{c1, c2})
			for c3 := c2 + 1; c3 < width; c3++ {
				if enc.FeatureOf(c3) == enc.FeatureOf(c1) || enc.FeatureOf(c3) == enc.FeatureOf(c2) {
					continue
				}
				wl.triples = append(wl.triples, []int{c1, c2, c3})
			}
		}
	}
	return wl, nil
}

// kernelCase is one gated benchmark: a name and the op it measures.
type kernelCase struct {
	name string
	cols [][]int
	run  func(wl *kernelWorkload, cols [][]int, ss, se, sm []float64)
}

func csrOp(level int) func(*kernelWorkload, [][]int, []float64, []float64, []float64) {
	return func(wl *kernelWorkload, cols [][]int, ss, se, sm []float64) {
		core.EvalPartition(wl.x, wl.e, cols, level, core.DefaultBlockSize, ss, se, sm)
	}
}

// bitsetOp measures the bitset level loop of k. KernelSuite packs k
// before timing: every benchmark iteration measures the steady-state level
// loop, packing is a once-per-run setup cost.
func bitsetOp(k *core.Kernel) func(*kernelWorkload, [][]int, []float64, []float64, []float64) {
	return func(_ *kernelWorkload, cols [][]int, ss, se, sm []float64) {
		k.EvalBitsetSerial(cols, ss, se, sm)
	}
}

// KernelSuite measures the gated eval-kernel benchmarks and returns them as
// artifact entries. RowsPerSec is dataset rows scanned per second of
// benchmark time (rows × iterations / elapsed).
func KernelSuite(seed int64) ([]benchfmt.Benchmark, error) {
	wl, err := newKernelWorkload(seed)
	if err != nil {
		return nil, err
	}
	plain := core.NewKernel(wl.x, wl.e, nil, core.BitsetOn)
	weighted := core.NewKernel(wl.x, wl.e, wl.w, core.BitsetOn)
	binary := core.NewKernel(wl.x, wl.eBin, nil, core.BitsetOn)
	cases := []kernelCase{
		{name: "eval/csr/pairs-l2", cols: wl.pairs, run: csrOp(2)},
		{name: "eval/bitset/pairs-l2", cols: wl.pairs, run: bitsetOp(plain)},
		{name: "eval/csr/triples-l3", cols: wl.triples, run: csrOp(3)},
		{name: "eval/bitset/triples-l3", cols: wl.triples, run: bitsetOp(plain)},
		{name: "eval/bitset/weighted-pairs-l2", cols: wl.pairs, run: bitsetOp(weighted)},
		{name: "eval/bitset/binary-triples-l3", cols: wl.triples, run: bitsetOp(binary)},
	}
	// Pin the measured region single-threaded and pre-pack the bitsets so
	// neither worker fan-out nor one-time setup leaks into any timed loop.
	old := matrix.SetMaxWorkers(1)
	defer matrix.SetMaxWorkers(old)
	for _, k := range []*core.Kernel{plain, weighted, binary} {
		k.Bits()
	}
	out := make([]benchfmt.Benchmark, 0, len(cases))
	for _, kc := range cases {
		kc := kc
		ss := make([]float64, len(kc.cols))
		se := make([]float64, len(kc.cols))
		sm := make([]float64, len(kc.cols))
		// Best of kernelRepeats runs: min ns/op is the standard
		// noise-robust statistic, and the gate compares two best-of-N
		// measurements, so scheduler hiccups on shared CI runners do not
		// masquerade as kernel regressions. Allocation counts are exact and
		// identical across repeats; the max is kept so a nondeterministic
		// allocation could never hide.
		var best benchfmt.Benchmark
		for rep := 0; rep < kernelRepeats; rep++ {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for j := range ss {
						ss[j], se[j], sm[j] = 0, 0, 0
					}
					kc.run(wl, kc.cols, ss, se, sm)
				}
			})
			ns := float64(r.NsPerOp())
			if rep == 0 || ns < best.NsPerOp {
				best.NsPerOp = ns
				best.RowsPerSec = rowsPerSec(wl.x.Rows(), r)
			}
			if a := r.AllocsPerOp(); a > best.AllocsPerOp {
				best.AllocsPerOp = a
			}
			if by := r.AllocedBytesPerOp(); by > best.BytesPerOp {
				best.BytesPerOp = by
			}
		}
		best.Name = kc.name
		best.Gate = true
		out = append(out, best)
	}
	return out, nil
}

// kernelRepeats is the best-of-N repeat count for gated measurements.
const kernelRepeats = 3

// RunSuite measures the ungated end-to-end enumeration benchmarks: one full
// Run per op through each kernel mode at ambient parallelism, and the
// per-core scaling of a generation-bound run at 1, 2 and 4 workers. These
// entries track the perf trajectory without failing CI on machine-dependent
// noise.
func RunSuite(seed int64) ([]benchfmt.Benchmark, error) {
	wl, err := newKernelWorkload(seed)
	if err != nil {
		return nil, err
	}
	modes := []struct {
		name string
		mode core.BitsetMode
	}{
		{"run/bitset-on", core.BitsetOn},
		{"run/bitset-off", core.BitsetOff},
	}
	var out []benchfmt.Benchmark
	for _, mc := range modes {
		cfg := core.Config{K: 4, Sigma: 20, Alpha: 0.95, BitsetEval: mc.mode}
		out = append(out, runBenchmark(mc.name, core.Input{DS: wl.ds, E: wl.e}, cfg))
	}
	// USCensus-shaped data to level 3, where candidate generation is most of
	// the run, with the workers of generation and evaluation pinned.
	census := datagen.USCensus(2000, seed)
	in := core.Input{DS: census.DS, E: census.Err}
	old := matrix.MaxWorkers()
	defer matrix.SetMaxWorkers(old)
	for _, w := range []int{1, 2, 4} {
		matrix.SetMaxWorkers(w)
		out = append(out, runBenchmark(fmt.Sprintf("run/gen-l3/workers-%d", w), in, core.Config{MaxLevel: 3}))
	}
	return out, nil
}

// runBenchmark measures one full core.Run of in under cfg per op. A failed
// run aborts the benchmark.
func runBenchmark(name string, in core.Input, cfg core.Config) benchfmt.Benchmark {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(context.Background(), in, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	return benchfmt.Benchmark{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		RowsPerSec:  rowsPerSec(in.DS.NumRows(), r),
	}
}

func rowsPerSec(rows int, r testing.BenchmarkResult) float64 {
	secs := r.T.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(rows) * float64(r.N) / secs
}

// MachineInfo describes the measuring machine for the artifact header.
func MachineInfo() benchfmt.Machine {
	return benchfmt.Machine{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
}
