package sliceline_test

import (
	"context"
	"errors"
	"math"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"

	"sliceline"
	"sliceline/internal/core"
	"sliceline/internal/matrix"
)

// optDataset builds a small deterministic dataset through the public API.
func optDataset(t *testing.T) (*sliceline.Dataset, []float64) {
	t.Helper()
	csv := strings.NewReader(
		"color,shape,y\n" +
			strings.Repeat("red,circle,1\nred,square,0\nblue,circle,0\nblue,square,1\ngreen,circle,1\n", 40))
	ds, err := sliceline.DatasetFromCSV(csv, "y", 4)
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := sliceline.TrainAndScore(ds, sliceline.TaskClassification)
	if err != nil {
		t.Fatal(err)
	}
	return ds, e
}

// TestRunContextMatchesRun: the context-first entry point with options must
// produce the same result as the struct-only form.
func TestRunContextMatchesRun(t *testing.T) {
	ds, e := optDataset(t)
	cfg := sliceline.Config{K: 3, Sigma: 5, Alpha: 0.9}
	want, err := sliceline.Run(ds, e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sliceline.RunContext(context.Background(), ds, e, sliceline.Config{K: 3, Sigma: 5, Alpha: 0.9},
		sliceline.WithMaxLevel(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.TopK) != len(want.TopK) {
		t.Fatalf("top-K size %d vs %d", len(got.TopK), len(want.TopK))
	}
	for i := range want.TopK {
		if got.TopK[i].Score != want.TopK[i].Score || got.TopK[i].Size != want.TopK[i].Size {
			t.Fatalf("slice %d differs between Run and RunContext", i)
		}
	}
}

// TestRunContextCancellation: a pre-cancelled context must abort the run.
func TestRunContextCancellation(t *testing.T) {
	ds, e := optDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sliceline.RunContext(ctx, ds, e, sliceline.Config{K: 3, Sigma: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestOptionsWireObservability: WithTracer and WithMetrics must thread the
// observers through to the enumeration.
func TestOptionsWireObservability(t *testing.T) {
	ds, e := optDataset(t)
	tr := sliceline.NewJSONTracer()
	reg := sliceline.NewMetrics()
	res, err := sliceline.RunContext(context.Background(), ds, e, sliceline.Config{K: 3, Sigma: 5},
		sliceline.WithTracer(tr), sliceline.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	var sawRun, sawLevel bool
	for _, sp := range tr.Spans() {
		switch sp.Name {
		case "core.run":
			sawRun = true
		case "core.level":
			sawLevel = true
		}
	}
	if !sawRun || !sawLevel {
		t.Fatalf("tracer missing run/level spans (run=%v level=%v)", sawRun, sawLevel)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "sl_core_runs_total 1") {
		t.Fatalf("metrics registry not wired:\n%s", b.String())
	}
	_ = res
}

// labelEvaluator evaluates candidates with the local kernel and records, per
// level, the profiler labels on the context it is handed.
type labelEvaluator struct {
	k      *core.Kernel
	phases map[int]string // level → phase label seen by Eval
	levels map[int]string // level → level label seen by Eval
}

func (le *labelEvaluator) Setup(_ context.Context, x *matrix.CSR, e []float64) error {
	le.k = core.NewKernel(x, e, nil, core.BitsetAuto)
	return nil
}

func (le *labelEvaluator) Eval(ctx context.Context, cols [][]int, level int) (ss, se, sm []float64, err error) {
	le.phases[level], _ = pprof.Label(ctx, "phase")
	le.levels[level], _ = pprof.Label(ctx, "level")
	ss, se, sm = make([]float64, len(cols)), make([]float64, len(cols)), make([]float64, len(cols))
	le.k.Eval(cols, level, 0, ss, se, sm)
	return ss, se, sm, nil
}

// TestEvaluatorSeesProfilerLabels: each level's evaluation runs under the
// profiler labels phase=eval and its level, so CPU profiles split by phase,
// and the labels reach an evaluator passed with WithEvaluator.
func TestEvaluatorSeesProfilerLabels(t *testing.T) {
	ds, e := optDataset(t)
	le := &labelEvaluator{phases: map[int]string{}, levels: map[int]string{}}
	res, err := sliceline.RunContext(context.Background(), ds, e, sliceline.Config{K: 3, Sigma: 5},
		sliceline.WithEvaluator(le))
	if err != nil {
		t.Fatal(err)
	}
	if len(le.phases) == 0 {
		t.Fatal("the evaluator was never called")
	}
	for _, ls := range res.Levels[1:] {
		if ls.Candidates == 0 {
			continue // nothing to evaluate
		}
		if le.phases[ls.Level] != "eval" || le.levels[ls.Level] != strconv.Itoa(ls.Level) {
			t.Errorf("level %d evaluated under phase=%q level=%q, want phase=\"eval\" level=%q",
				ls.Level, le.phases[ls.Level], le.levels[ls.Level], strconv.Itoa(ls.Level))
		}
	}
}

// TestWithResume: checkpoint options must round-trip through a resumed run.
func TestWithResume(t *testing.T) {
	ds, e := optDataset(t)
	path := t.TempDir() + "/run.ck"
	first, err := sliceline.RunContext(context.Background(), ds, e, sliceline.Config{K: 3, Sigma: 5},
		sliceline.WithCheckpoint(path))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := sliceline.RunContext(context.Background(), ds, e, sliceline.Config{K: 3, Sigma: 5},
		sliceline.WithResume(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.TopK) != len(first.TopK) {
		t.Fatalf("resumed top-K size %d vs %d", len(resumed.TopK), len(first.TopK))
	}
	for i := range first.TopK {
		if resumed.TopK[i].Score != first.TopK[i].Score {
			t.Fatalf("resumed slice %d differs", i)
		}
	}
}

// TestPublicSentinels: the re-exported sentinels must match what Run returns.
func TestPublicSentinels(t *testing.T) {
	ds, e := optDataset(t)
	if _, err := sliceline.Run(ds, e[:3], sliceline.Config{}); !errors.Is(err, sliceline.ErrBadErrorVector) {
		t.Fatalf("got %v, want ErrBadErrorVector", err)
	}
	if _, err := sliceline.Run(ds, e, sliceline.Config{Alpha: math.NaN()}); !errors.Is(err, sliceline.ErrBadAlpha) {
		t.Fatalf("got %v, want ErrBadAlpha", err)
	}
	if err := (sliceline.Config{K: 2, Alpha: 0.5}).Validate(); err != nil {
		t.Fatalf("Validate on a valid config: %v", err)
	}
}
