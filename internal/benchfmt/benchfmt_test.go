package benchfmt

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func validFile() File {
	return File{
		SchemaVersion: SchemaVersion,
		Generated:     "2026-08-08T00:00:00Z",
		Machine:       Machine{GOOS: "linux", GOARCH: "amd64", NumCPU: 4, GoVersion: "go1.24.0"},
		Seed:          1,
		Benchmarks: []Benchmark{
			{Name: "eval/bitset/pairs-l2", NsPerOp: 100000, AllocsPerOp: 0, BytesPerOp: 0, RowsPerSec: 2e7, Gate: true},
			{Name: "eval/csr/pairs-l2", NsPerOp: 2000000, AllocsPerOp: 330, BytesPerOp: 13312, RowsPerSec: 1e6, Gate: true},
			{Name: "run/bitset-on", NsPerOp: 2200000, AllocsPerOp: 13888, BytesPerOp: 1652212},
		},
	}
}

// TestGoldenRoundTrip pins the on-disk schema: the committed golden file
// must read cleanly, and writing it back must reproduce it byte for byte —
// any schema change that breaks committed BENCH_*.json artifacts fails here
// before it lands.
func TestGoldenRoundTrip(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("golden file does not read: %v", err)
	}
	if f.SchemaVersion != SchemaVersion || f.Seed != 1 || len(f.Benchmarks) != 3 {
		t.Fatalf("golden decoded wrong: %+v", f)
	}
	b, ok := f.Lookup("eval/bitset/pairs-l2")
	if !ok || !b.Gate || b.AllocsPerOp != 0 {
		t.Fatalf("golden gated benchmark decoded wrong: %+v", b)
	}
	if r, ok := f.Lookup("run/bitset-on"); !ok || r.Gate {
		t.Fatalf("golden ungated benchmark decoded wrong: %+v", r)
	}
	var out bytes.Buffer
	if err := Write(&out, f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), raw) {
		t.Fatalf("golden round-trip not byte-identical:\n--- written ---\n%s\n--- committed ---\n%s", out.Bytes(), raw)
	}
}

// TestWriteReadRoundTrip: any file Write accepts must round-trip through
// Read to an equal value.
func TestWriteReadRoundTrip(t *testing.T) {
	f := validFile()
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generated != f.Generated || got.Machine != f.Machine || got.Seed != f.Seed {
		t.Fatalf("header did not round-trip: %+v", got)
	}
	if len(got.Benchmarks) != len(f.Benchmarks) {
		t.Fatalf("benchmark count did not round-trip: %d", len(got.Benchmarks))
	}
	for i, b := range f.Benchmarks {
		if got.Benchmarks[i] != b {
			t.Fatalf("benchmark %d did not round-trip: %+v vs %+v", i, got.Benchmarks[i], b)
		}
	}
}

// TestReadRejectsMalformed: every structurally broken input is rejected
// with ErrMalformed instead of gating on garbage.
func TestReadRejectsMalformed(t *testing.T) {
	mutate := func(f func(*File)) string {
		v := validFile()
		f(&v)
		out, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	cases := map[string]string{
		"not json":          "][",
		"empty":             "",
		"unknown field":     `{"schema_version":1,"generated":"x","machine":{"goos":"l","goarch":"a","num_cpu":1,"go_version":"g"},"seed":1,"surprise":true,"benchmarks":[{"name":"a","ns_per_op":1,"allocs_per_op":0,"bytes_per_op":0}]}`,
		"trailing garbage":  mutate(func(*File) {}) + `{"again":true}`,
		"wrong version":     mutate(func(f *File) { f.SchemaVersion = 99 }),
		"zero version":      mutate(func(f *File) { f.SchemaVersion = 0 }),
		"no benchmarks":     mutate(func(f *File) { f.Benchmarks = nil }),
		"unnamed benchmark": mutate(func(f *File) { f.Benchmarks[0].Name = "" }),
		"duplicate name":    mutate(func(f *File) { f.Benchmarks[1].Name = f.Benchmarks[0].Name }),
		"zero ns":           mutate(func(f *File) { f.Benchmarks[0].NsPerOp = 0 }),
		"negative ns":       mutate(func(f *File) { f.Benchmarks[0].NsPerOp = -5 }),
		"negative allocs":   mutate(func(f *File) { f.Benchmarks[0].AllocsPerOp = -1 }),
		"negative rows/s":   mutate(func(f *File) { f.Benchmarks[0].RowsPerSec = -1 }),
	}
	for name, input := range cases {
		if _, err := Read(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted", name)
		} else if input != "" && input != "][" && !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: error %v does not wrap ErrMalformed", name, err)
		}
	}
}

// TestWriteRejectsInvalid: Write validates too, so a buggy measurement run
// can never produce a baseline that later fails to read.
func TestWriteRejectsInvalid(t *testing.T) {
	f := validFile()
	f.Benchmarks[0].NsPerOp = -1
	if err := Write(&bytes.Buffer{}, f); err == nil {
		t.Fatal("Write accepted an out-of-domain measurement")
	}
}

// TestDiffRegressionDetected: a gated ns/op regression beyond the allowance
// and any gated allocs/op growth both fail.
func TestDiffRegressionDetected(t *testing.T) {
	base := validFile()
	cur := validFile()
	cur.Benchmarks[0].NsPerOp = base.Benchmarks[0].NsPerOp * 1.5 // +50% > 15%
	findings, failed, err := Diff(base, cur, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("+50%% ns/op on a gated benchmark passed the gate")
	}
	assertFinding(t, findings, "eval/bitset/pairs-l2", "ns/op", true)

	cur = validFile()
	cur.Benchmarks[0].AllocsPerOp = 1 // 0 -> 1 allocs
	findings, failed, err = Diff(base, cur, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("allocs/op growth on a gated benchmark passed the gate")
	}
	assertFinding(t, findings, "eval/bitset/pairs-l2", "allocs/op", true)
	for _, fd := range findings {
		if fd.Name == "eval/bitset/pairs-l2" && fd.Metric == "allocs/op" && !math.IsInf(fd.Delta, 1) {
			t.Fatalf("0 -> 1 allocs delta = %v, want +Inf", fd.Delta)
		}
	}
}

// TestDiffImprovementAndNoisePass: improvements and small regressions
// within the allowance pass; ungated entries never fail.
func TestDiffImprovementAndNoisePass(t *testing.T) {
	base := validFile()
	cur := validFile()
	cur.Benchmarks[0].NsPerOp = base.Benchmarks[0].NsPerOp * 0.5  // 2x faster
	cur.Benchmarks[1].NsPerOp = base.Benchmarks[1].NsPerOp * 1.10 // +10% < 15%
	cur.Benchmarks[2].NsPerOp = base.Benchmarks[2].NsPerOp * 9    // ungated: any growth ok
	cur.Benchmarks[2].AllocsPerOp = base.Benchmarks[2].AllocsPerOp * 2
	findings, failed, err := Diff(base, cur, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("improvement/noise run failed the gate: %+v", findings)
	}
	for _, fd := range findings {
		if fd.Name == "run/bitset-on" && fd.Gated {
			t.Fatal("ungated benchmark marked gated")
		}
	}
}

// TestDiffMissingGatedBenchmark: a gated baseline entry absent from the
// current run (renamed without a baseline refresh) is an error, never a
// silent pass. A missing ungated entry is skipped.
func TestDiffMissingGatedBenchmark(t *testing.T) {
	base := validFile()
	cur := validFile()
	cur.Benchmarks[0].Name = "eval/bitset/pairs-l2-renamed"
	if _, _, err := Diff(base, cur, 0.15); err == nil {
		t.Fatal("missing gated benchmark did not error")
	}
	cur = validFile()
	cur.Benchmarks = cur.Benchmarks[:2] // drop the ungated run/bitset-on
	if _, failed, err := Diff(base, cur, 0.15); err != nil || failed {
		t.Fatalf("missing ungated benchmark: failed=%v err=%v", failed, err)
	}
}

// TestDiffDefaultAllowance: maxRegress <= 0 selects DefaultMaxRegress.
func TestDiffDefaultAllowance(t *testing.T) {
	base := validFile()
	cur := validFile()
	cur.Benchmarks[0].NsPerOp = base.Benchmarks[0].NsPerOp * 1.10
	if _, failed, err := Diff(base, cur, 0); err != nil || failed {
		t.Fatalf("+10%% under default allowance: failed=%v err=%v", failed, err)
	}
	cur.Benchmarks[0].NsPerOp = base.Benchmarks[0].NsPerOp * 1.20
	if _, failed, err := Diff(base, cur, 0); err != nil || !failed {
		t.Fatalf("+20%% under default allowance: failed=%v err=%v", failed, err)
	}
}

func assertFinding(t *testing.T, findings []Finding, name, metric string, wantFailed bool) {
	t.Helper()
	for _, f := range findings {
		if f.Name == name && f.Metric == metric {
			if f.Failed != wantFailed {
				t.Fatalf("finding %s %s: failed=%v, want %v", name, metric, f.Failed, wantFailed)
			}
			return
		}
	}
	t.Fatalf("no finding for %s %s", name, metric)
}

// TestDiffReportsNewBenchmarks: a benchmark only in the current run — a
// newly added gated entry — is listed as "new" with its measurements, and
// never fails the gate, however slow or allocating it is.
func TestDiffReportsNewBenchmarks(t *testing.T) {
	base := validFile()
	cur := validFile()
	cur.Benchmarks = append(cur.Benchmarks, Benchmark{
		Name: "eval/bitset/binary-triples-l3", NsPerOp: 5e9, AllocsPerOp: 7, Gate: true,
	})
	findings, failed, err := Diff(base, cur, 0.15)
	if err != nil || failed {
		t.Fatalf("new benchmark: failed=%v err=%v", failed, err)
	}
	var added []Finding
	for _, f := range findings {
		if f.Added {
			added = append(added, f)
		}
	}
	if len(added) != 2 || added[0].Name != "eval/bitset/binary-triples-l3" || added[0].Failed || added[1].Failed {
		t.Fatalf("added findings = %+v", added)
	}
	if added[0].Metric != "ns/op" || added[0].New != 5e9 || added[1].Metric != "allocs/op" || added[1].New != 7 {
		t.Fatalf("added measurements = %+v", added)
	}
	var out bytes.Buffer
	if err := Report(&out, findings); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.Contains(l, "binary-triples-l3") {
			lines = append(lines, l)
		}
	}
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "new ") || !strings.HasPrefix(lines[1], "new ") {
		t.Fatalf("report lines for the new benchmark = %q\nfull report:\n%s", lines, out.String())
	}
}
