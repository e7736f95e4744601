package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"

	"sliceline"
	"sliceline/internal/datagen"
)

// TestWorkloadsReportEveryMetric runs every workload at tiny scale with the
// traced run and checks that both result lines carry every declared metric
// with its unit, that the end-to-end metrics are positive, and that every
// output check passed.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := w.run(context.Background(), options{seed: 7, trace: true, tiny: true, log: testLog{t}})
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted < 2 {
				t.Fatalf("attempted %d, failed %d", rep.attempted, rep.failed)
			}
			rep.metrics["peak_rss_mb"] = peakRSSMB()
			for _, trace := range []bool{false, true} {
				line, err := resultLine(rep, trace)
				if err != nil {
					t.Fatal(err)
				}
				var res struct {
					Correct bool
					Metrics map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(line), &res); err != nil {
					t.Fatalf("result line is not JSON: %v\n%s", err, line)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if !res.Correct || len(res.Metrics) != len(defs) {
					t.Fatalf("correct=%v with %d metrics, want %d", res.Correct, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					got, ok := res.Metrics[d.name]
					if !ok || got.Unit != d.unit || (!trace && got.Value <= 0) {
						t.Errorf("%s = %+v (present %v), want unit %s", d.name, got, ok, d.unit)
					}
				}
			}
			for _, name := range []string{"core.eval_s", "core.generate_s", "core.candidates", "trace.overhead_ratio"} {
				if rep.metrics[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, rep.metrics[name])
				}
			}
		})
	}
}

// TestLayerMetricsOfTheirWorkload checks that the dist and server layers
// are measured on the workloads that pass through them.
func TestLayerMetricsOfTheirWorkload(t *testing.T) {
	o := options{seed: 3, trace: true, tiny: true, log: testLog{t}}
	rep, err := kddFleet.run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"dist.setup_s", "dist.eval_s", "dist.calls", "dist.bytes_out_mb", "dist.bytes_in_mb", "dist.worker_eval_s", "dist.overhead_s"} {
		if rep.metrics[name] <= 0 {
			t.Errorf("kdd-fleet %s = %v, want > 0", name, rep.metrics[name])
		}
	}
	rep, err = adultMonitor.run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	appends := adultMonitor.sizes(o).appends
	if got := rep.metrics["server.refreshes"]; got != float64(appends+1) {
		t.Errorf("server.refreshes = %v, want %d", got, appends+1)
	}
	for _, name := range []string{"refresh_p50_ms", "append_p50_ms", "server.register_s", "server.first_result_s", "server.refresh.core_run_ms"} {
		if rep.metrics[name] <= 0 {
			t.Errorf("adult-monitor %s = %v, want > 0", name, rep.metrics[name])
		}
	}
}

// TestCoreSplitCoversRun: the five core phases account for the core.run
// span to within a few percent.
func TestCoreSplitCoversRun(t *testing.T) {
	g := datagen.USCensus(2000, contentSeed)
	tracer := sliceline.NewJSONTracer()
	if _, err := sliceline.RunContext(context.Background(), g.DS, g.Err, censusL3.cfg, sliceline.WithTracer(tracer)); err != nil {
		t.Fatal(err)
	}
	cs, err := splitCore(tracer.Spans())
	if err != nil {
		t.Fatal(err)
	}
	if c := float64(cs.setup+cs.generate+cs.eval+cs.topk+cs.dec) / float64(cs.run); c < 0.97 || c > 1.0001 {
		t.Fatalf("phases cover %.4f of core.run (setup %v generate %v eval %v topk %v decode %v of %v)",
			c, cs.setup, cs.generate, cs.eval, cs.topk, cs.dec, cs.run)
	}
}

// TestCheckCountsWrongOutput: a result whose statistics do not recount is a
// failed operation.
func TestCheckCountsWrongOutput(t *testing.T) {
	o := options{seed: 1, tiny: true, log: io.Discard}
	in, err := censusL3.prepare(o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sliceline.RunContext(context.Background(), in.ds, in.e, censusL3.cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := &report{}
	censusL3.check(rep, o, in, res, nil, nil)
	if rep.attempted != 1 || rep.failed != 0 {
		t.Fatalf("correct result: attempted %d failed %d", rep.attempted, rep.failed)
	}
	res.TopK[1].Size++
	censusL3.check(rep, o, in, res, nil, nil)
	if rep.attempted != 2 || rep.failed != 1 {
		t.Fatalf("wrong size: attempted %d failed %d", rep.attempted, rep.failed)
	}
}

// TestBenchmarkJSONMatches keeps the metric and workload lists in the code
// and in BENCHMARK.json identical.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, code %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, code %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, code %s", i, w.Name, workloads[i].name)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "census-l3", "--trace", "2"},
		{"--workload", "census-l3", "--seconds", "0"},
	} {
		var stdout bytes.Buffer
		if code := run(args, &stdout, io.Discard); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// testLog routes failure reports to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(bytes.TrimSpace(p)))
	return len(p), nil
}
