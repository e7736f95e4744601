// Command perfbench is SliceLine's end-to-end benchmark. It runs one named
// workload against the public entry points of the repository (RunContext, the
// dist worker fleet, the slserve HTTP service), checks every output, and
// prints the end-to-end metrics (--trace 0) or the per-layer split of one
// extra traced run (--trace 1) as the last line of standard output:
//
//	{"correct": true, "attempted": 4, "failed": 0, "metrics": {"run_s": {"value": 4.71, "unit": "s"}, ...}}
//
// Build and run it from the repository root with perfbench/run.py; README.md
// in this directory documents the workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The lists below must
// match BENCHMARK.json at the repository root (main_test.go checks it).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"run_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// reportedLevels are the lattice levels that get their own generate/eval
// split; level 1 evaluates nothing (its statistics come from the full-width
// aggregates counted in core.setup_s).
var reportedLevels = []int{2, 3}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"frame.encode_s", "s"},
		{"core.setup_s", "s"},
		{"core.generate_s", "s"},
	}
	for _, l := range reportedLevels {
		defs = append(defs, metricDef{fmt.Sprintf("core.generate_s.l%d", l), "s"})
	}
	defs = append(defs, metricDef{"core.eval_s", "s"})
	for _, l := range reportedLevels {
		defs = append(defs, metricDef{fmt.Sprintf("core.eval_s.l%d", l), "s"})
	}
	return append(defs,
		metricDef{"core.topk_s", "s"},
		metricDef{"core.decode_s", "s"},
		metricDef{"core.levels", "count"},
		metricDef{"core.candidates", "count"},
		metricDef{"core.pruned", "count"},
		metricDef{"core.generate.kept_ratio", "1"},
		metricDef{"core.eval.valid_ratio", "1"},
		metricDef{"core.alloc_mb", "MB"},
		metricDef{"core.gc_cycles", "count"},
		metricDef{"dist.setup_s", "s"},
		metricDef{"dist.eval_s", "s"},
		metricDef{"dist.calls", "count"},
		metricDef{"dist.bytes_out_mb", "MB"},
		metricDef{"dist.bytes_in_mb", "MB"},
		metricDef{"dist.worker_eval_s", "s"},
		metricDef{"dist.hedges", "count"},
		metricDef{"dist.overhead_s", "s"},
		metricDef{"server.register_s", "s"},
		metricDef{"server.first_result_s", "s"},
		metricDef{"refresh_p50_ms", "ms"},
		metricDef{"refresh_p90_ms", "ms"},
		metricDef{"append_p50_ms", "ms"},
		metricDef{"server.refresh.core_run_ms", "ms"},
		metricDef{"server.refresh.core_eval_ms", "ms"},
		metricDef{"server.refresh.overhead_ms", "ms"},
		metricDef{"server.refreshes", "count"},
		metricDef{"trace.overhead_ratio", "1"},
	)
}()

// options are the per-invocation knobs every workload receives.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// tiny shrinks every workload to a few thousand rows; the benchmark's
	// own tests use it.
	tiny bool
	log  io.Writer
}

// report is what one workload invocation measured. Layer metrics a workload
// does not pass through (dist on local workloads, server on batch ones) are
// left out and reported as 0.
type report struct {
	attempted, failed int
	metrics           map[string]float64
}

// fail records one failed operation with its reason.
func (r *report) fail(o options, format string, args ...any) {
	r.failed++
	fmt.Fprintf(o.log, "perfbench: FAILED: "+format+"\n", args...)
}

type workload struct {
	name string
	run  func(ctx context.Context, o options) (*report, error)
}

var workloads = []workload{
	{"census-l3", censusL3.run},
	{"criteo-wide", criteoWide.run},
	{"kdd-fleet", kddFleet.run},
	{"adult-monitor", adultMonitor.run},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed (row order, partitions and append order)")
	seconds := fs.Int("seconds", 15, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of one extra traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, log: stderr}
	rep, err := w.run(context.Background(), o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.metrics["peak_rss_mb"] = peakRSSMB()
	line, err := resultLine(rep, o.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s seed=%d attempted=%d failed=%d\n", w.name, *seed, rep.attempted, rep.failed)
	fmt.Fprintln(stdout, line)
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// resultLine renders the contract's result object: every end-to-end metric
// without tracing, every per-layer metric with it.
func resultLine(rep *report, trace bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	known := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.name] = true
	}
	var unknown []string
	for k := range rep.metrics {
		if !known[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return "", fmt.Errorf("workload reported undeclared metrics %v", unknown)
	}
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && !trace {
			return "", fmt.Errorf("workload did not report %s", d.name)
		}
		out[d.name] = value{v, d.unit}
	}
	if rep.attempted < 1 {
		return "", errors.New("workload attempted no operation")
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, out})
	return string(b), err
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// median returns the middle value of xs (the mean of the middle two for an
// even count); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
