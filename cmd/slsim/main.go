// Command slsim runs deterministic cluster-scheduling experiments: it loads
// a declarative scenario file (topology, latency/straggler/failure
// distributions, fault script, knob grid), simulates every grid point of the
// scheduling knobs against the real policy code the TCP runtime uses
// (internal/sim drives dist.HedgePolicy, dist.ProbeStep, dist.ReshipPlan,
// membership.LeaseStep in virtual time), and emits a versioned JSON report
// with per-point metrics and a winner table:
//
//	slsim -scenario scenarios/hedge_tuning.json -out report.json
//
// The report is a pure function of the scenario file: same scenario, same
// seed, byte-identical bytes. -check re-runs the sweep and compares against
// a committed report, which is how CI pins both determinism and the data
// behind the runtime's default knobs:
//
//	slsim -scenario scenarios/hedge_tuning.json -check reports/SIM_REPORT_hedge_2026-08-08.json
//
// Exit status: 0 ok, 1 check mismatch, 2 usage or malformed input.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"sliceline/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario = fs.String("scenario", "", "scenario JSON file (required)")
		out      = fs.String("out", "", "write the report to this file (default: stdout)")
		check    = fs.String("check", "", "re-run the sweep and require byte-identity with this committed report")
		quiet    = fs.Bool("quiet", false, "suppress the summary on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scenario == "" {
		fmt.Fprintln(stderr, "slsim: -scenario is required")
		fs.Usage()
		return 2
	}
	sc, err := sim.LoadScenario(*scenario)
	if err != nil {
		fmt.Fprintln(stderr, "slsim:", err)
		return 2
	}
	rep := sim.Sweep(sc)
	var buf bytes.Buffer
	if err := sim.EncodeReport(&buf, rep); err != nil {
		fmt.Fprintln(stderr, "slsim:", err)
		return 2
	}
	if !*quiet {
		summarize(stderr, rep)
	}
	if *check != "" {
		committed, err := os.ReadFile(*check)
		if err != nil {
			fmt.Fprintln(stderr, "slsim:", err)
			return 2
		}
		if !bytes.Equal(committed, buf.Bytes()) {
			// A hand-edited or truncated file is a different failure than a
			// simulator change; say which.
			if _, err := sim.DecodeReport(bytes.NewReader(committed)); err != nil {
				fmt.Fprintf(stderr, "slsim: %s is not a valid report: %v\n", *check, err)
				return 1
			}
			fmt.Fprintf(stderr, "slsim: report drifted from %s — the scenario, the policy code, or the simulator changed; re-run with -out to refresh it\n", *check)
			return 1
		}
		fmt.Fprintf(stderr, "slsim: %s is byte-identical to a fresh sweep\n", *check)
		return 0
	}
	if *out != "" {
		if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintln(stderr, "slsim:", err)
			return 2
		}
		return 0
	}
	if _, err := stdout.Write(buf.Bytes()); err != nil {
		fmt.Fprintln(stderr, "slsim:", err)
		return 2
	}
	return 0
}

func summarize(w io.Writer, rep sim.Report) {
	fmt.Fprintf(w, "slsim: scenario %q seed %d: %d workers, %d partitions, %d grid points\n",
		rep.Scenario, rep.Seed, rep.Workers, rep.Partitions, len(rep.Runs))
	names := make([]string, 0, len(rep.Winners))
	for name := range rep.Winners {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "slsim:   best %-16s %s\n", name, knobString(rep.Winners[name]))
	}
	fmt.Fprintf(w, "slsim:   recommended      %s\n", knobString(rep.Recommended))
	for _, r := range rep.Runs {
		if r.Error != "" {
			fmt.Fprintf(w, "slsim:   WARNING: grid point %+v failed: %s\n", r.Knobs, r.Error)
		}
	}
}

func knobString(k sim.Knobs) string {
	s := fmt.Sprintf("hedge_after=%dms hedge_mult=%.2g heartbeat=%dms strikes=%d timeout=%dms",
		k.HedgeAfterMS, k.HedgeMult, k.HeartbeatMS, k.Strikes, k.CallTimeoutMS)
	if k.LeaseStrikes > 0 {
		s += fmt.Sprintf(" lease_strikes=%d", k.LeaseStrikes)
	}
	return s
}
