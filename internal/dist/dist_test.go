package dist

import (
	"context"
	"math/rand"
	"net"
	"reflect"
	"testing"

	"sliceline/internal/core"
	"sliceline/internal/fptol"
	"sliceline/internal/frame"
)

func randomDataset(rng *rand.Rand, n, m, maxDom int) (*frame.Dataset, []float64) {
	ds := &frame.Dataset{
		Name:     "rand",
		X0:       frame.NewIntMatrix(n, m),
		Features: make([]frame.Feature, m),
	}
	for j := 0; j < m; j++ {
		dom := 2 + rng.Intn(maxDom-1)
		ds.Features[j] = frame.Feature{Name: "f", Domain: dom}
		for i := 0; i < n; i++ {
			ds.X0.Set(i, j, 1+rng.Intn(dom))
		}
	}
	e := make([]float64, n)
	for i := range e {
		e[i] = rng.Float64()
	}
	return ds, e
}

func scores(slices []core.Slice) []float64 {
	out := make([]float64, len(slices))
	for i, s := range slices {
		out[i] = s.Score
	}
	return out
}

// equalScores compares rank-aligned scores under the shared cross-plan
// tolerance: scores are order-dependent summations, so plans may differ in
// the last ULPs (see internal/fptol for the derivation).
func equalScores(a, b []float64) bool {
	return fptol.DefaultTol.CloseSlices(a, b)
}

func TestLocalStrategiesMatchBuiltin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds, e := randomDataset(rng, 300, 4, 4)
	cfg := core.Config{K: 6, Sigma: 3, Alpha: 0.9}
	ref, err := core.Run(context.Background(), core.Input{DS: ds, E: e}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{MTOps, MTPFor} {
		ev, err := NewLocal(strat, 16)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Evaluator = ev
		got, err := core.Run(context.Background(), core.Input{DS: ds, E: e}, c)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if !equalScores(scores(got.TopK), scores(ref.TopK)) {
			t.Fatalf("%v: scores %v differ from builtin %v", strat, scores(got.TopK), scores(ref.TopK))
		}
	}
}

func TestNewLocalRejectsDistPFor(t *testing.T) {
	if _, err := NewLocal(DistPFor, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestInProcessClusterMatchesBuiltin(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds, e := randomDataset(rng, 400, 4, 4)
	cfg := core.Config{K: 5, Sigma: 4, Alpha: 0.9}
	ref, err := core.Run(context.Background(), core.Input{DS: ds, E: e}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, nWorkers := range []int{1, 2, 4, 7} {
		workers := make([]Worker, nWorkers)
		for i := range workers {
			workers[i] = &InProcessWorker{}
		}
		cl, err := NewCluster(workers, 0)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Evaluator = cl
		got, err := core.Run(context.Background(), core.Input{DS: ds, E: e}, c)
		if err != nil {
			t.Fatalf("%d workers: %v", nWorkers, err)
		}
		if !equalScores(scores(got.TopK), scores(ref.TopK)) {
			t.Fatalf("%d workers: scores %v differ from builtin %v", nWorkers, scores(got.TopK), scores(ref.TopK))
		}
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(nil, 0); err == nil {
		t.Fatal("expected error for empty cluster")
	}
}

func TestWorkerEvalBeforeLoad(t *testing.T) {
	w := &InProcessWorker{}
	if _, _, _, err := w.Eval(context.Background(), 0, [][]int{{0}}, 1, 0); err == nil {
		t.Fatal("expected error for eval before load")
	}
}

// startWorkers spawns n TCP worker servers on ephemeral localhost ports and
// returns their addresses and a shutdown func.
func startWorkers(t *testing.T, n int) ([]string, func()) {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = lis
		addrs[i] = lis.Addr().String()
		go Serve(lis) //nolint:errcheck // test server lifetime bound to listener
	}
	return addrs, func() {
		for _, lis := range listeners {
			lis.Close()
		}
	}
}

func TestTCPClusterMatchesBuiltin(t *testing.T) {
	addrs, shutdown := startWorkers(t, 3)
	defer shutdown()

	rng := rand.New(rand.NewSource(3))
	ds, e := randomDataset(rng, 500, 4, 4)
	cfg := core.Config{K: 5, Sigma: 4, Alpha: 0.9}
	ref, err := core.Run(context.Background(), core.Input{DS: ds, E: e}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	workers := make([]Worker, len(addrs))
	for i, a := range addrs {
		w, err := Dial(a)
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	cl, err := NewCluster(workers, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	c := cfg
	c.Evaluator = cl
	got, err := core.Run(context.Background(), core.Input{DS: ds, E: e}, c)
	if err != nil {
		t.Fatal(err)
	}
	if !equalScores(scores(got.TopK), scores(ref.TopK)) {
		t.Fatalf("tcp cluster scores %v differ from builtin %v", scores(got.TopK), scores(ref.TopK))
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestRemoteEvalBeforeLoad(t *testing.T) {
	addrs, shutdown := startWorkers(t, 1)
	defer shutdown()
	w, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, _, _, err := w.Eval(context.Background(), 0, [][]int{{0}}, 1, 0); err == nil {
		t.Fatal("expected error for remote eval before load")
	}
}

func TestClusterSurfacesWorkerFailure(t *testing.T) {
	// A worker that dies mid-run must surface as an error from core.Run,
	// not as silent data loss.
	addrs, shutdown := startWorkers(t, 2)
	rng := rand.New(rand.NewSource(4))
	ds, e := randomDataset(rng, 300, 3, 3)

	workers := make([]Worker, len(addrs))
	for i, a := range addrs {
		w, err := Dial(a)
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	cl, err := NewCluster(workers, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the workers before the run; Setup (Load) must fail.
	shutdown()
	workers[0].Close()
	workers[1].Close()
	cfg := core.Config{K: 4, Sigma: 3, Alpha: 0.9, Evaluator: cl}
	if _, err := core.Run(context.Background(), core.Input{DS: ds, E: e}, cfg); err == nil {
		t.Fatal("expected error from dead cluster")
	}
}

func TestServeStopsOnClose(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- Serve(lis) }()
	lis.Close()
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v on close, want nil", err)
	}
}

// TestClusterMixedErrorPartitionsMatchLocal: each worker's kernel describes
// its own partition's errors, so one partition can take the 0/1 popcount
// path while another enumerates real errors. Merged, they must give the
// local run's result: identical predicates and sizes, statistics within the
// cross-plan tolerance (partition sums add in a different order).
func TestClusterMixedErrorPartitionsMatchLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ds, e := randomDataset(rng, 400, 4, 3)
	// Plant a high-error slice (f0 = 1 and f1 = 1) so the top-K is not
	// empty; the first partition gets 0/1 errors, the second real ones.
	first := PartitionSizes(len(e), 2)[0]
	for i := range e {
		p := 0.1
		if ds.X0.At(i, 0) == 1 && ds.X0.At(i, 1) == 1 {
			p = 0.8
		}
		switch {
		case i >= first:
			e[i] = p * rng.Float64() * 2
		case rng.Float64() < p:
			e[i] = 1
		default:
			e[i] = 0
		}
	}
	cfg := core.Config{K: 5, Sigma: 4, Alpha: 0.9, BitsetEval: core.BitsetOn}
	ref, err := core.Run(context.Background(), core.Input{DS: ds, E: e}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster([]Worker{&InProcessWorker{BitsetEval: core.BitsetOn}, &InProcessWorker{BitsetEval: core.BitsetOn}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Evaluator = cl
	got, err := core.Run(context.Background(), core.Input{DS: ds, E: e}, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.TopK) != len(ref.TopK) || len(got.TopK) == 0 {
		t.Fatalf("top-K lengths %d vs %d", len(got.TopK), len(ref.TopK))
	}
	for i, g := range got.TopK {
		r := ref.TopK[i]
		if !reflect.DeepEqual(g.Predicates, r.Predicates) || g.Size != r.Size {
			t.Fatalf("slice %d: %+v, local %+v", i, g, r)
		}
		if !fptol.DefaultTol.Close(g.TotalError, r.TotalError) || g.MaxError != r.MaxError || !fptol.DefaultTol.Close(g.Score, r.Score) {
			t.Fatalf("slice %d statistics: %+v, local %+v", i, g, r)
		}
	}
}
