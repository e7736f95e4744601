package core

import (
	"encoding/json"
	"fmt"
	"time"
)

// ResultSchemaVersion identifies the JSON layout written by Result.
// MarshalJSON. Version 2 added the result-level optimality gap (`gap`) and
// the per-slice statistical annotations (`p_value`, `q_value`,
// `significant`, `diff_sign`); version-1 documents are a strict subset and
// UnmarshalJSON still accepts them (the new fields read as zero). Other
// versions are refused instead of silently misread.
const ResultSchemaVersion = 2

// The json* shadow structs pin the interchange layout: explicit snake_case
// field names and integer-nanosecond durations, independent of how the Go
// structs evolve. They are what `sliceline -json` emits and what
// `slreport -result` consumes.

type jsonPredicate struct {
	Feature int    `json:"feature"`
	Name    string `json:"name"`
	Value   int    `json:"value"`
	Label   string `json:"label,omitempty"`
}

type jsonSlice struct {
	Predicates  []jsonPredicate `json:"predicates"`
	Score       float64         `json:"score"`
	Size        int             `json:"size"`
	TotalError  float64         `json:"total_error"`
	MaxError    float64         `json:"max_error"`
	AvgError    float64         `json:"avg_error"`
	PValue      float64         `json:"p_value"`
	QValue      float64         `json:"q_value"`
	Significant bool            `json:"significant,omitempty"`
	DiffSign    int             `json:"diff_sign,omitempty"`
}

type jsonLevelStats struct {
	Level      int   `json:"level"`
	Candidates int   `json:"candidates"`
	Valid      int   `json:"valid"`
	Pruned     int   `json:"pruned"`
	ElapsedNS  int64 `json:"elapsed_ns"`
	GenerateNS int64 `json:"generate_ns"`
	EvalNS     int64 `json:"eval_ns"`
}

func toJSONLevel(l LevelStats) jsonLevelStats {
	return jsonLevelStats{
		Level:      l.Level,
		Candidates: l.Candidates,
		Valid:      l.Valid,
		Pruned:     l.Pruned,
		ElapsedNS:  l.Elapsed.Nanoseconds(),
		GenerateNS: l.GenerateElapsed.Nanoseconds(),
		EvalNS:     l.EvalElapsed.Nanoseconds(),
	}
}

// stats converts back; fields absent from older payloads decode as zero.
func (jl jsonLevelStats) stats() LevelStats {
	return LevelStats{
		Level:           jl.Level,
		Candidates:      jl.Candidates,
		Valid:           jl.Valid,
		Pruned:          jl.Pruned,
		Elapsed:         time.Duration(jl.ElapsedNS),
		GenerateElapsed: time.Duration(jl.GenerateNS),
		EvalElapsed:     time.Duration(jl.EvalNS),
	}
}

type jsonResult struct {
	SchemaVersion int              `json:"schema_version"`
	TopK          []jsonSlice      `json:"top_k"`
	Levels        []jsonLevelStats `json:"levels"`
	N             int              `json:"n"`
	AvgError      float64          `json:"avg_error"`
	Sigma         int              `json:"sigma"`
	Alpha         float64          `json:"alpha"`
	ElapsedNS     int64            `json:"elapsed_ns"`
	Truncated     bool             `json:"truncated,omitempty"`
	Gap           float64          `json:"gap,omitempty"`
}

// MarshalJSON implements the stable interchange form of a predicate.
func (p Predicate) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonPredicate(p))
}

// UnmarshalJSON implements the stable interchange form of a predicate.
func (p *Predicate) UnmarshalJSON(data []byte) error {
	var jp jsonPredicate
	if err := json.Unmarshal(data, &jp); err != nil {
		return err
	}
	*p = Predicate(jp)
	return nil
}

// MarshalJSON implements the stable interchange form of a slice.
func (s Slice) MarshalJSON() ([]byte, error) {
	js := jsonSlice{
		Predicates:  make([]jsonPredicate, len(s.Predicates)),
		Score:       s.Score,
		Size:        s.Size,
		TotalError:  s.TotalError,
		MaxError:    s.MaxError,
		AvgError:    s.AvgError,
		PValue:      s.PValue,
		QValue:      s.QValue,
		Significant: s.Significant,
		DiffSign:    s.DiffSign,
	}
	for i, p := range s.Predicates {
		js.Predicates[i] = jsonPredicate(p)
	}
	return json.Marshal(js)
}

// UnmarshalJSON implements the stable interchange form of a slice.
func (s *Slice) UnmarshalJSON(data []byte) error {
	var js jsonSlice
	if err := json.Unmarshal(data, &js); err != nil {
		return err
	}
	*s = Slice{
		Score:       js.Score,
		Size:        js.Size,
		TotalError:  js.TotalError,
		MaxError:    js.MaxError,
		AvgError:    js.AvgError,
		PValue:      js.PValue,
		QValue:      js.QValue,
		Significant: js.Significant,
		DiffSign:    js.DiffSign,
	}
	if len(js.Predicates) > 0 {
		s.Predicates = make([]Predicate, len(js.Predicates))
		for i, p := range js.Predicates {
			s.Predicates[i] = Predicate(p)
		}
	}
	return nil
}

// MarshalJSON implements the stable interchange form of level statistics.
func (l LevelStats) MarshalJSON() ([]byte, error) {
	return json.Marshal(toJSONLevel(l))
}

// UnmarshalJSON implements the stable interchange form of level statistics.
func (l *LevelStats) UnmarshalJSON(data []byte) error {
	var jl jsonLevelStats
	if err := json.Unmarshal(data, &jl); err != nil {
		return err
	}
	*l = jl.stats()
	return nil
}

// MarshalJSON renders the result in its versioned interchange form.
func (r Result) MarshalJSON() ([]byte, error) {
	jr := jsonResult{
		SchemaVersion: ResultSchemaVersion,
		TopK:          make([]jsonSlice, 0, len(r.TopK)),
		Levels:        make([]jsonLevelStats, 0, len(r.Levels)),
		N:             r.N,
		AvgError:      r.AvgError,
		Sigma:         r.Sigma,
		Alpha:         r.Alpha,
		ElapsedNS:     r.Elapsed.Nanoseconds(),
		Truncated:     r.Truncated,
		Gap:           r.Gap,
	}
	for _, s := range r.TopK {
		preds := make([]jsonPredicate, len(s.Predicates))
		for i, p := range s.Predicates {
			preds[i] = jsonPredicate(p)
		}
		jr.TopK = append(jr.TopK, jsonSlice{
			Predicates: preds, Score: s.Score, Size: s.Size,
			TotalError: s.TotalError, MaxError: s.MaxError, AvgError: s.AvgError,
			PValue: s.PValue, QValue: s.QValue, Significant: s.Significant, DiffSign: s.DiffSign,
		})
	}
	for _, l := range r.Levels {
		jr.Levels = append(jr.Levels, toJSONLevel(l))
	}
	return json.Marshal(jr)
}

// UnmarshalJSON parses the versioned interchange form, rejecting unknown
// schema versions.
func (r *Result) UnmarshalJSON(data []byte) error {
	var jr jsonResult
	if err := json.Unmarshal(data, &jr); err != nil {
		return err
	}
	// Version 1 is a strict subset of version 2 (no gap, no per-slice
	// statistics): old payloads decode with those fields zero.
	if jr.SchemaVersion != ResultSchemaVersion && jr.SchemaVersion != 1 {
		return fmt.Errorf("core: result JSON has schema_version %d, this build reads %d", jr.SchemaVersion, ResultSchemaVersion)
	}
	out := Result{
		N:         jr.N,
		AvgError:  jr.AvgError,
		Sigma:     jr.Sigma,
		Alpha:     jr.Alpha,
		Elapsed:   time.Duration(jr.ElapsedNS),
		Truncated: jr.Truncated,
		Gap:       jr.Gap,
	}
	for _, js := range jr.TopK {
		s := Slice{
			Score: js.Score, Size: js.Size,
			TotalError: js.TotalError, MaxError: js.MaxError, AvgError: js.AvgError,
			PValue: js.PValue, QValue: js.QValue, Significant: js.Significant, DiffSign: js.DiffSign,
		}
		for _, p := range js.Predicates {
			s.Predicates = append(s.Predicates, Predicate(p))
		}
		out.TopK = append(out.TopK, s)
	}
	for _, jl := range jr.Levels {
		out.Levels = append(out.Levels, jl.stats())
	}
	*r = out
	return nil
}
