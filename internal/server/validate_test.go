package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"sliceline/internal/core"
	"sliceline/internal/frame"
)

// TestInvalidErrorsRejectedAtEveryEntry feeds one bad error value (NaN, ±Inf
// or negative) into every entry point that accepts an error vector — the
// batch and diff runs, the incremental evaluator's constructor and append,
// and the server's registration and append — and requires each to refuse
// it. A NaN or infinite error that got through would surface as a NaN score
// reported with Gap = 0, "exact".
func TestInvalidErrorsRejectedAtEveryEntry(t *testing.T) {
	const rows = 24
	f, err := frame.ReadCSV(strings.NewReader(testCSV(rows)))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := frame.FromFrame(f, "", 4, "err")
	if err != nil {
		t.Fatal(err)
	}
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	good := make([]float64, rows)
	for i := range good {
		good[i] = 0.1
	}
	// withBad returns a copy of good whose row 3 carries v.
	withBad := func(v float64) []float64 {
		e := append([]float64(nil), good...)
		e[3] = v
		return e
	}
	ctx := context.Background()
	cfg := core.Config{K: 2, Sigma: 2}
	_, ts := newTestServer(t, Config{Pool: 1, QueueDepth: 2})
	base, code := registerCSV(t, ts, testCSV(rows), "name=valid&err=err")
	if code != http.StatusCreated {
		t.Fatalf("registering the valid dataset: status %d", code)
	}

	entries := []struct {
		name string
		feed func(v float64) error
	}{
		{"core.Run", func(v float64) error {
			_, err := core.Run(ctx, core.Input{DS: ds, Enc: enc, E: withBad(v)}, cfg)
			return err
		}},
		{"core.RunDiff/new", func(v float64) error {
			_, err := core.RunDiff(ctx, core.Input{DS: ds, Enc: enc, E: withBad(v)}, good, cfg)
			return err
		}},
		{"core.RunDiff/base", func(v float64) error {
			_, err := core.RunDiff(ctx, core.Input{DS: ds, Enc: enc, E: good}, withBad(v), cfg)
			return err
		}},
		{"core.NewIncremental", func(v float64) error {
			_, err := core.NewIncremental(enc, ds.Features, withBad(v), cfg)
			return err
		}},
		{"Incremental.Append", func(v float64) error {
			inc, err := core.NewIncremental(enc, ds.Features, good, cfg)
			if err != nil {
				return fmt.Errorf("valid base rejected: %w", err)
			}
			ap, err := frame.NewAppender(ds, enc)
			if err != nil {
				return err
			}
			res, err := ap.AppendRows([][]string{{"d1", "o1", "r1"}})
			if err != nil {
				return err
			}
			return inc.Append(res, []float64{v})
		}},
		{"server registration", func(v float64) error {
			csv := strings.Replace(testCSV(rows), "d3,o0,r1,0.1", fmt.Sprintf("d3,o0,r1,%g", v), 1)
			if _, code := registerCSV(t, ts, csv, "name=bad&err=err"); code != http.StatusBadRequest {
				return nil
			}
			return core.ErrBadErrorVector
		}},
		{"server append", func(v float64) error {
			csv := fmt.Sprintf("dev,os,region,err\nd1,o1,r1,%g\n", v)
			if _, code, _ := postAppend(t, ts, base.ID, csv); code != http.StatusBadRequest {
				return nil
			}
			return core.ErrBadErrorVector
		}},
	}
	for _, entry := range entries {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
			if err := entry.feed(v); !errors.Is(err, core.ErrBadErrorVector) {
				t.Errorf("%s accepted error value %v (err = %v)", entry.name, v, err)
			}
		}
	}
}
