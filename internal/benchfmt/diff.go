package benchfmt

import (
	"fmt"
	"io"
	"math"
)

// DefaultMaxRegress is the allowed fractional ns/op growth on gated
// benchmarks before the comparator fails: 15%, loose enough to absorb
// runner noise on single-threaded benchmarks, tight enough to catch a real
// kernel regression (the bitset-vs-CSR gap this gate protects is ≥2×).
const DefaultMaxRegress = 0.15

// Finding is the comparison result for one benchmark metric.
type Finding struct {
	Name   string  // benchmark name
	Metric string  // "ns/op" or "allocs/op"
	Old    float64 // baseline value
	New    float64 // current value
	Delta  float64 // fractional change, (new-old)/old; +Inf when old == 0
	Gated  bool    // participates in the pass/fail decision
	Failed bool    // gated and regressed beyond the allowance
	Added  bool    // only in the current run: no baseline, never fails
}

func (f Finding) String() string {
	if f.Added {
		return fmt.Sprintf("%-4s %-34s %-10s %14s -> %14.1f", "new", f.Name, f.Metric, "-", f.New)
	}
	verdict := "ok"
	if f.Failed {
		verdict = "FAIL"
	} else if !f.Gated {
		verdict = "info"
	}
	return fmt.Sprintf("%-4s %-34s %-10s %14.1f -> %14.1f  (%+.1f%%)",
		verdict, f.Name, f.Metric, f.Old, f.New, 100*f.Delta)
}

// Diff compares a freshly measured file against the committed baseline.
// Every gated baseline benchmark must exist in current — a missing or
// renamed gated benchmark is an error, never a silent pass. Gated
// benchmarks fail on ns/op growth beyond maxRegress (<= 0 selects
// DefaultMaxRegress) and on any allocs/op growth; improvements always
// pass. Ungated benchmarks present in both files are reported
// informationally and never fail, and so are benchmarks present only in
// current (Added), so a newly gated entry shows in the change that adds it.
//
// The returned failed flag is true when any finding failed; err reports
// structural problems (a gated benchmark missing from current).
func Diff(baseline, current File, maxRegress float64) (findings []Finding, failed bool, err error) {
	if maxRegress <= 0 {
		maxRegress = DefaultMaxRegress
	}
	for _, base := range baseline.Benchmarks {
		cur, ok := current.Lookup(base.Name)
		if !ok {
			if base.Gate {
				return nil, false, fmt.Errorf(
					"benchfmt: gated benchmark %q missing from current run (renamed? refresh the baseline)", base.Name)
			}
			continue
		}
		ns := Finding{
			Name:   base.Name,
			Metric: "ns/op",
			Old:    base.NsPerOp,
			New:    cur.NsPerOp,
			Delta:  frac(base.NsPerOp, cur.NsPerOp),
			Gated:  base.Gate,
		}
		ns.Failed = ns.Gated && ns.Delta > maxRegress
		al := Finding{
			Name:   base.Name,
			Metric: "allocs/op",
			Old:    float64(base.AllocsPerOp),
			New:    float64(cur.AllocsPerOp),
			Delta:  frac(float64(base.AllocsPerOp), float64(cur.AllocsPerOp)),
			Gated:  base.Gate,
		}
		// Any allocation growth on a gated benchmark fails: the hot loops
		// this gate covers are pinned at their exact committed footprint
		// (0 allocs/op for the bitset level loop).
		al.Failed = al.Gated && cur.AllocsPerOp > base.AllocsPerOp
		findings = append(findings, ns, al)
		failed = failed || ns.Failed || al.Failed
	}
	for _, cur := range current.Benchmarks {
		if _, ok := baseline.Lookup(cur.Name); ok {
			continue
		}
		findings = append(findings,
			Finding{Name: cur.Name, Metric: "ns/op", New: cur.NsPerOp, Gated: cur.Gate, Added: true},
			Finding{Name: cur.Name, Metric: "allocs/op", New: float64(cur.AllocsPerOp), Gated: cur.Gate, Added: true})
	}
	return findings, failed, nil
}

// frac returns the fractional change from old to cur. A zero old value with
// a non-zero cur value is an infinite regression (e.g. 0 -> 1 allocs/op).
func frac(old, cur float64) float64 {
	switch {
	case old == cur:
		return 0
	case old == 0:
		if cur > 0 {
			return math.Inf(1)
		}
		return -1
	default:
		return (cur - old) / old
	}
}

// Report writes the findings as an aligned text table.
func Report(w io.Writer, findings []Finding) error {
	for _, f := range findings {
		if _, err := fmt.Fprintln(w, f); err != nil {
			return err
		}
	}
	return nil
}
