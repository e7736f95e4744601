package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"

	"sliceline/internal/frame"
)

// This file defines the FNV fingerprints shared by the checkpoint machinery
// and the server-side result cache (internal/server). Both consumers need the
// same question answered — "are these the inputs of that earlier run?" — so
// they share one definition and one test, instead of drifting apart.

// sigHasher wraps an FNV-64a stream with the fixed-width little-endian
// encoders every signature in this package uses. Words collect in a buffer
// that is hashed a block at a time: FNV folds in one byte after another, so
// the blocking does not change the value, and a signature over millions of
// words costs no allocation per word.
type sigHasher struct {
	h   hash.Hash64
	buf []byte
}

// sigBlock is the buffer size in bytes, a multiple of 8.
const sigBlock = 4096

func newSigHasher() *sigHasher {
	return &sigHasher{h: fnv.New64a(), buf: make([]byte, 0, sigBlock)}
}

func (s *sigHasher) u64(v uint64) {
	s.buf = binary.LittleEndian.AppendUint64(s.buf, v)
	if len(s.buf) == sigBlock {
		s.h.Write(s.buf)
		s.buf = s.buf[:0]
	}
}

func (s *sigHasher) f64(v float64) { s.u64(math.Float64bits(v)) }

func (s *sigHasher) flag(v bool) {
	if v {
		s.u64(1)
	} else {
		s.u64(0)
	}
}

func (s *sigHasher) sum() uint64 {
	s.h.Write(s.buf)
	s.buf = s.buf[:0]
	return s.h.Sum64()
}

// DataSignature fingerprints the data inputs of an enumeration run: the
// one-hot matrix of ds (dimensions and all three CSR components), the error
// vector and the optional weight vector (nil for unweighted runs). Two
// datasets with the same signature produce the same enumeration under the
// same configuration; content-addressed stores (the server's dataset
// registry) key on it directly.
//
// The matrix is hashed from the rows of X0, without building it: the stream
// is exactly what frame.OneHot's CSR would feed in, so stored signatures
// (checkpoints, the server's journal and cache keys) keep their values.
func DataSignature(ds *frame.Dataset, e, w []float64) uint64 {
	beg, l := oneHotOffsets(ds.Features)
	n, m := ds.NumRows(), len(beg)
	s := newSigHasher()
	s.u64(uint64(n))
	s.u64(uint64(l))
	// Every one-hot row holds m entries: rowPtr[i] = i·m.
	for i := 0; i <= n; i++ {
		s.u64(uint64(i * m))
	}
	for i := 0; i < n; i++ {
		for j, v := range ds.X0.Row(i) {
			s.u64(uint64(beg[j] + v - 1))
		}
	}
	for k := 0; k < n*m; k++ {
		s.f64(1)
	}
	s.u64(uint64(len(e)))
	for _, v := range e {
		s.f64(v)
	}
	s.u64(uint64(len(w)))
	for _, v := range w {
		s.f64(v)
	}
	return s.sum()
}

// ConfigSignature fingerprints the configuration switches that alter which
// candidates are generated, evaluated, or how their statistics are summed.
// The config must have defaults resolved (WithDefaults) so that, e.g., an
// explicit K=4 and a defaulted K hash identically.
//
// MaxLevel is deliberately excluded — resuming with a deeper level cap
// legitimately extends a shallower run, because the per-level state is
// identical up to the old cap. BlockSize, BitsetEval and the evaluator are
// excluded too: re-running under a different execution plan produces the same
// result, with the usual cross-plan last-ULP caveat on summed statistics.
// Callers that
// must distinguish depth-capped results (the server's result cache) combine
// this with MaxLevel explicitly.
func ConfigSignature(cfg Config) uint64 {
	s := newSigHasher()
	s.u64(uint64(cfg.K))
	s.u64(uint64(cfg.Sigma))
	s.f64(cfg.Alpha)
	s.u64(uint64(cfg.MaxCandidatesPerLevel))
	s.flag(cfg.DisableSizePruning)
	s.flag(cfg.DisableScorePruning)
	s.flag(cfg.DisableParentHandling)
	s.flag(cfg.DisableDedup)
	s.flag(cfg.PriorityEnumeration)
	return s.sum()
}

// Signature combines DataSignature and ConfigSignature into the single
// fingerprint the checkpoint file records: everything a resumed run must
// agree on with the run that wrote the checkpoint.
func Signature(ds *frame.Dataset, e, w []float64, cfg Config) uint64 {
	s := newSigHasher()
	s.u64(DataSignature(ds, e, w))
	s.u64(ConfigSignature(cfg))
	return s.sum()
}
