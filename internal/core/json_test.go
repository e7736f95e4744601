package core

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func sampleResult() *Result {
	return &Result{
		TopK: []Slice{
			{
				Predicates: []Predicate{
					{Feature: 0, Name: "degree", Value: 2, Label: "PhD"},
					{Feature: 3, Name: "gender", Value: 1},
				},
				Score: 0.875, Size: 120, TotalError: 36.5, MaxError: 1, AvgError: 0.3042,
				PValue: 0.003, QValue: 0.006, Significant: true, DiffSign: 1,
			},
			{Score: -0.25, Size: 48, TotalError: 3, MaxError: 0.5, AvgError: 0.0625,
				PValue: 0.4, QValue: 0.4, DiffSign: -1},
		},
		Levels: []LevelStats{
			{Level: 1, Candidates: 40, Valid: 31, Elapsed: 12 * time.Millisecond, EvalElapsed: 5 * time.Millisecond},
			{Level: 2, Candidates: 210, Valid: 87, Pruned: 355, Elapsed: 47 * time.Millisecond,
				GenerateElapsed: 21 * time.Millisecond, EvalElapsed: 13 * time.Millisecond},
		},
		N: 5000, AvgError: 0.21, Sigma: 50, Alpha: 0.95,
		Elapsed: 61 * time.Millisecond, Truncated: true, Gap: 0.125,
	}
}

// TestResultJSONSchema pins the interchange layout: versioned, snake_case,
// durations in integer nanoseconds.
func TestResultJSONSchema(t *testing.T) {
	data, err := json.Marshal(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{
		`"schema_version":2`,
		`"top_k":[`,
		`"predicates":[`,
		`"total_error":36.5`,
		`"max_error":1`,
		`"avg_error":`,
		`"label":"PhD"`,
		`"elapsed_ns":61000000`,
		`"truncated":true`,
		`"levels":[`,
		`"pruned":355`,
		`"generate_ns":21000000`,
		`"eval_ns":13000000`,
		`"gap":0.125`,
		`"p_value":0.003`,
		`"q_value":0.006`,
		`"significant":true`,
		`"diff_sign":1`,
		`"diff_sign":-1`,
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("result JSON missing %s:\n%s", want, s)
		}
	}
	// The second predicate has no label; omitempty must drop the key there.
	if strings.Count(s, `"label"`) != 1 {
		t.Fatalf("label must be omitted when empty:\n%s", s)
	}
	// significant is omitempty: only the first (significant) slice carries it.
	if strings.Count(s, `"significant"`) != 1 {
		t.Fatalf("significant must be omitted when false:\n%s", s)
	}
}

// TestResultJSONStableRoundTrip: Marshal → Unmarshal reproduces every field
// exactly, including durations and nested predicates.
func TestResultJSONStableRoundTrip(t *testing.T) {
	res := sampleResult()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.N != res.N || back.Sigma != res.Sigma || back.Alpha != res.Alpha ||
		back.AvgError != res.AvgError || back.Elapsed != res.Elapsed || back.Truncated != res.Truncated {
		t.Fatalf("scalar fields differ after round trip: %+v", back)
	}
	if len(back.TopK) != len(res.TopK) {
		t.Fatalf("top-K lost: %d vs %d", len(back.TopK), len(res.TopK))
	}
	for i := range res.TopK {
		a, b := res.TopK[i], back.TopK[i]
		if a.Score != b.Score || a.Size != b.Size || a.TotalError != b.TotalError ||
			a.MaxError != b.MaxError || a.AvgError != b.AvgError {
			t.Fatalf("slice %d statistics differ: %+v vs %+v", i, a, b)
		}
		if a.PValue != b.PValue || a.QValue != b.QValue ||
			a.Significant != b.Significant || a.DiffSign != b.DiffSign {
			t.Fatalf("slice %d annotations differ: %+v vs %+v", i, a, b)
		}
		if len(a.Predicates) != len(b.Predicates) {
			t.Fatalf("slice %d predicates lost", i)
		}
		for j := range a.Predicates {
			if a.Predicates[j] != b.Predicates[j] {
				t.Fatalf("slice %d predicate %d differs: %+v vs %+v", i, j, a.Predicates[j], b.Predicates[j])
			}
		}
	}
	if back.Gap != res.Gap {
		t.Fatalf("gap differs after round trip: %v vs %v", back.Gap, res.Gap)
	}
	if len(back.Levels) != len(res.Levels) {
		t.Fatal("levels lost")
	}
	for i := range res.Levels {
		if back.Levels[i] != res.Levels[i] {
			t.Fatalf("level %d differs: %+v vs %+v", i, back.Levels[i], res.Levels[i])
		}
	}
}

// TestResultJSONAcceptsV1 pins backward compatibility: a schema_version 1
// document (written by earlier releases, without gap or per-slice
// statistics) must still decode, with the new fields zero.
func TestResultJSONAcceptsV1(t *testing.T) {
	v1 := `{"schema_version":1,"top_k":[{"predicates":[{"feature":0,"name":"degree","value":2,"label":"PhD"}],"score":0.875,"size":120,"total_error":36.5,"max_error":1,"avg_error":0.3042}],"levels":[{"level":1,"candidates":40,"valid":31,"pruned":0,"elapsed_ns":12000000}],"n":5000,"avg_error":0.21,"sigma":50,"alpha":0.95,"elapsed_ns":61000000,"truncated":true}`
	var r Result
	if err := json.Unmarshal([]byte(v1), &r); err != nil {
		t.Fatalf("v1 payload rejected: %v", err)
	}
	if r.N != 5000 || len(r.TopK) != 1 || r.TopK[0].Score != 0.875 || !r.Truncated {
		t.Fatalf("v1 payload misread: %+v", r)
	}
	if r.Gap != 0 || r.TopK[0].PValue != 0 || r.TopK[0].QValue != 0 ||
		r.TopK[0].Significant || r.TopK[0].DiffSign != 0 {
		t.Fatalf("v2-only fields must read as zero from a v1 payload: %+v", r)
	}
	if l := r.Levels[0]; l.Elapsed != 12*time.Millisecond || l.GenerateElapsed != 0 || l.EvalElapsed != 0 {
		t.Fatalf("level without a phase split misread: %+v", l)
	}
}

// TestResultJSONRejectsUnknownSchema: a future or missing schema version must
// be refused, not silently half-parsed.
func TestResultJSONRejectsUnknownSchema(t *testing.T) {
	var r Result
	if err := json.Unmarshal([]byte(`{"schema_version":99,"n":5}`), &r); err == nil {
		t.Fatal("unknown schema version must be rejected")
	}
	if err := json.Unmarshal([]byte(`{"n":5}`), &r); err == nil {
		t.Fatal("missing schema version must be rejected")
	}
}
