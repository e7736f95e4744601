package core

import (
	"context"
	"fmt"

	"sliceline/internal/frame"
	"sliceline/internal/matrix"
)

// memoEntry is the stored evaluation state of one slice candidate: its
// statistics accumulated over rows [0, rows). Entries never go stale — a
// candidate pruned for several generations and re-enumerated later simply
// continues from where its scan stopped.
type memoEntry struct {
	rows       int
	ss, se, sm float64
}

// sliceMemo carries per-candidate slice statistics across generations of an
// incremental run. Keys are the candidate's ORIGINAL one-hot column ids (the
// reduced column space changes per generation as the σ-filter moves, original
// ids are stable modulo domain-growth remaps, which rekey the memo). The
// packed bitset covers the full one-hot width and, with the error vector's
// errorBits, is grown in place by appends.
type sliceMemo struct {
	bits    *matrix.ColumnBits
	errs    errorBits
	entries map[string]memoEntry
	hits    int // candidates continued from a memo entry, cumulative
	misses  int // candidates evaluated from row 0, cumulative
}

// memoKey encodes sorted original column ids into a compact map key.
func memoKey(cols []int) string {
	b := make([]byte, 4*len(cols))
	for i, c := range cols {
		b[i*4] = byte(c)
		b[i*4+1] = byte(c >> 8)
		b[i*4+2] = byte(c >> 16)
		b[i*4+3] = byte(c >> 24)
	}
	return string(b)
}

// memoKeyCols decodes a memo key back into column ids, appending to dst.
func memoKeyCols(dst []int, key string) []int {
	for i := 0; i+4 <= len(key); i += 4 {
		c := int(key[i]) | int(key[i+1])<<8 | int(key[i+2])<<16 | int(key[i+3])<<24
		dst = append(dst, c)
	}
	return dst
}

// rekey rewrites every memo key through a domain-growth column remap.
func (m *sliceMemo) rekey(remap []int) {
	out := make(map[string]memoEntry, len(m.entries))
	var cols []int
	for k, ent := range m.entries {
		cols = memoKeyCols(cols[:0], k)
		for i, c := range cols {
			cols[i] = remap[c]
		}
		out[memoKey(cols)] = ent
	}
	m.entries = out
}

// evalLevel is the incremental counterpart of Kernel.Eval: every candidate of
// a level is looked up by its original column ids; a memoized candidate scans
// only the rows appended since its last evaluation, seeded with the stored
// statistics, an unseen candidate scans from row 0. Both land bit-identical
// to a from-scratch evaluation (see evalBitsetFrom). Candidates are sharded
// across workers like Kernel.Eval — the map is read concurrently and
// updated serially afterwards.
func (m *sliceMemo) evalLevel(orig []int, e []float64, lv *level) {
	nc := lv.size()
	if nc == 0 {
		return
	}
	n := m.bits.Rows()
	keys := make([]string, nc)
	hits := make([]bool, nc)
	matrix.ParallelFor(nc, func(lo, hi int) {
		var buf []int
		for s := lo; s < hi; s++ {
			buf = buf[:0]
			for _, c := range lv.cols[s] {
				buf = append(buf, orig[c])
			}
			key := memoKey(buf)
			keys[s] = key
			var from int
			var ss, se, sm float64
			if ent, ok := m.entries[key]; ok && ent.rows <= n {
				from, ss, se, sm = ent.rows, ent.ss, ent.se, ent.sm
				hits[s] = true
			}
			lv.ss[s], lv.se[s], lv.sm[s] = evalBitsetFrom(m.bits, &m.errs, e, nil, buf, from, ss, se, sm)
		}
	})
	for s := 0; s < nc; s++ {
		m.entries[keys[s]] = memoEntry{rows: n, ss: lv.ss[s], se: lv.se[s], sm: lv.sm[s]}
		if hits[s] {
			m.hits++
		} else {
			m.misses++
		}
	}
}

// IncrementalStats reports the memo state of an incremental run, for
// observability and tests.
type IncrementalStats struct {
	Generation int // appends applied since construction
	Rows       int // accumulated row count
	Entries    int // memoized candidates
	Hits       int // cumulative candidate evaluations continued from the memo
	Misses     int // cumulative candidate evaluations scanned from row 0
}

// Incremental maintains SliceLine top-K across dataset appends. Construction
// captures a base encoding and error vector; Append folds in the output of a
// frame.Appender batch plus the new rows' errors; Run evaluates the current
// generation's exact top-K.
//
// The maintained result is bit-identical to a from-scratch Run over the
// accumulated data at every generation (with Config.BitsetEval = BitsetOn on
// the reference — the row-parallel CSR kernel merges chunk partials in a
// different float-addition order). The mechanism: level-1 statistics, the
// σ-filter, scoring and the pruning/enumeration control flow are recomputed
// from scratch each generation through the exact same code path as a batch
// run — they are O(nnz) and O(candidates), cheap — while the expensive part,
// the per-candidate row scans of levels >= 2, is memoized. A candidate
// evaluated at a prior generation scans only the appended rows, seeded with
// its stored statistics; sequential-continuation accumulation makes that
// bit-identical to a full scan. Lattice regions whose parents stay pruned are
// never scanned at all; a region whose parent statistics move past a stored
// pruning bound re-enters enumeration automatically (the control flow re-runs
// every generation) and resumes from whatever scan state the memo holds.
//
// Incremental is not safe for concurrent use: callers serialize Append and
// Run (the server gives each monitored dataset one owning goroutine).
type Incremental struct {
	cfg   Config
	feats []frame.Feature
	enc   *frame.Encoding
	e     []float64
	memo  *sliceMemo
	gen   int
}

// NewIncremental builds an incremental evaluator over a base encoding,
// feature descriptors and error vector. The configuration is captured once
// and reused every generation (σ defaulting still tracks the growing row
// count, exactly as a batch run would resolve it). Configurations that
// delegate or reorder evaluation — external evaluators, dense evaluation,
// priority enumeration, checkpoint/resume — are rejected: the memo is the
// evaluation path.
func NewIncremental(enc *frame.Encoding, feats []frame.Feature, e []float64, cfg Config) (*Incremental, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch {
	case cfg.Evaluator != nil:
		return nil, fmt.Errorf("core: incremental runs cannot use an external evaluator")
	case cfg.DenseEval:
		return nil, fmt.Errorf("core: incremental runs cannot use dense evaluation")
	case cfg.PriorityEnumeration:
		return nil, fmt.Errorf("core: incremental runs cannot use priority enumeration")
	case cfg.CheckpointPath != "" || cfg.Resume:
		return nil, fmt.Errorf("core: incremental runs cannot use checkpoint/resume")
	}
	if len(e) != enc.X.Rows() {
		return nil, fmt.Errorf("core: error vector length %d vs %d rows: %w", len(e), enc.X.Rows(), ErrBadErrorVector)
	}
	if err := ValidateVectors(e, nil); err != nil {
		return nil, err
	}
	return &Incremental{
		cfg:   cfg,
		feats: append([]frame.Feature(nil), feats...),
		enc:   enc,
		e:     append([]float64(nil), e...),
		memo: &sliceMemo{
			bits:    matrix.PackColumns(enc.X),
			errs:    packErrors(e),
			entries: make(map[string]memoEntry),
		},
	}, nil
}

// Generation returns the number of appends applied since construction.
func (inc *Incremental) Generation() int { return inc.gen }

// Rows returns the accumulated row count.
func (inc *Incremental) Rows() int { return len(inc.e) }

// Stats returns the current memo statistics.
func (inc *Incremental) Stats() IncrementalStats {
	return IncrementalStats{
		Generation: inc.gen,
		Rows:       len(inc.e),
		Entries:    len(inc.memo.entries),
		Hits:       inc.memo.hits,
		Misses:     inc.memo.misses,
	}
}

// Append folds one applied frame.Appender batch into the evaluator: the
// packed bitset is column-remapped if a feature domain grew, extended in
// place with the appended rows, the memo rekeyed, and the new rows' errors
// concatenated and folded into the kernel's errorBits. errs must align with
// the batch (len == res.NewRows) and obey the same finite e >= 0 contract as
// a batch run.
func (inc *Incremental) Append(res *frame.AppendResult, errs []float64) error {
	if res == nil || res.Enc == nil {
		return fmt.Errorf("core: nil append result")
	}
	if len(errs) != res.NewRows {
		return fmt.Errorf("core: %d errors for %d appended rows: %w", len(errs), res.NewRows, ErrBadErrorVector)
	}
	if err := ValidateVectors(errs, nil); err != nil {
		return fmt.Errorf("core: appended rows: %w", err)
	}
	if res.Enc.X.Rows() != len(inc.e)+res.NewRows {
		return fmt.Errorf("core: append result has %d rows, evaluator holds %d + %d new",
			res.Enc.X.Rows(), len(inc.e), res.NewRows)
	}
	if res.ColRemap != nil {
		if err := inc.memo.bits.RemapCols(res.Enc.Width(), res.ColRemap); err != nil {
			return err
		}
		inc.memo.rekey(res.ColRemap)
	}
	if err := inc.memo.bits.AppendRows(res.Enc.X); err != nil {
		return err
	}
	// Full copy, not append-in-place: a Result decoded from the previous
	// generation must keep its view, and the old backing array may be shared.
	e := make([]float64, 0, len(inc.e)+len(errs))
	e = append(append(e, inc.e...), errs...)
	inc.memo.errs.extend(e, len(inc.e))
	inc.e = e
	inc.enc = res.Enc
	inc.feats = append(inc.feats[:0:0], res.DS.Features...)
	inc.gen++
	return nil
}

// Run evaluates the current generation and returns its exact top-K. The
// result is bit-identical to Run over the accumulated encoding with
// BitsetEval = BitsetOn.
func (inc *Incremental) Run(ctx context.Context) (*Result, error) {
	return run(ctx, inc.enc, inc.feats, inc.e, nil, inc.cfg, inc.memo)
}
