// Command slbenchdiff compares a benchmark artifact against a baseline
// artifact and fails on regressions in the gated eval-kernel benchmarks. It
// is the CI bench-gate, which measures the merge-base and the head on the
// same runner:
//
//	slbench-base -bench-out /tmp/base.json
//	slbench-head -bench-out /tmp/head.json
//	slbenchdiff -baseline /tmp/base.json -current /tmp/head.json
//
// Gated benchmarks fail the gate when ns/op grows beyond -max-regress
// (default 15%) or allocs/op grows at all; improvements pass. A gated
// benchmark missing from the current run — typically a rename without a
// baseline refresh — is an error, never a silent pass.
//
// Exit status: 0 pass, 1 regression, 2 usage or malformed input.
package main

import (
	"flag"
	"fmt"
	"os"

	"sliceline/internal/benchfmt"
)

func main() {
	var (
		baseline   = flag.String("baseline", "", "baseline artifact, e.g. the merge-base measured on the same machine")
		current    = flag.String("current", "", "freshly measured artifact to check")
		maxRegress = flag.Float64("max-regress", benchfmt.DefaultMaxRegress, "allowed fractional ns/op growth on gated benchmarks")
	)
	flag.Parse()
	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "slbenchdiff: -baseline and -current are required")
		flag.Usage()
		os.Exit(2)
	}
	if *maxRegress <= 0 {
		fmt.Fprintf(os.Stderr, "slbenchdiff: -max-regress %v out of domain (want > 0)\n", *maxRegress)
		os.Exit(2)
	}
	base, err := benchfmt.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slbenchdiff:", err)
		os.Exit(2)
	}
	cur, err := benchfmt.ReadFile(*current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slbenchdiff:", err)
		os.Exit(2)
	}
	if base.Seed != cur.Seed {
		fmt.Fprintf(os.Stderr, "slbenchdiff: seed mismatch: baseline %d vs current %d (different workloads)\n",
			base.Seed, cur.Seed)
		os.Exit(2)
	}
	findings, failed, err := benchfmt.Diff(base, cur, *maxRegress)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slbenchdiff:", err)
		os.Exit(2)
	}
	if err := benchfmt.Report(os.Stdout, findings); err != nil {
		fmt.Fprintln(os.Stderr, "slbenchdiff:", err)
		os.Exit(2)
	}
	if failed {
		fmt.Printf("FAIL: gated benchmark regressed beyond %.0f%% ns/op or grew allocs/op\n", 100**maxRegress)
		os.Exit(1)
	}
	fmt.Println("PASS: no gated regressions")
}
