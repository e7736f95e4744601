package core

import (
	"os"
	"path/filepath"
	"testing"

	"sliceline/internal/frame"
)

func sigDataset(t *testing.T) (*frame.Dataset, []float64) {
	t.Helper()
	ds := &frame.Dataset{
		Name: "sig",
		X0:   frame.NewIntMatrix(4, 2),
		Features: []frame.Feature{
			{Name: "a", Domain: 2},
			{Name: "b", Domain: 2},
		},
	}
	codes := [][]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}}
	for i, row := range codes {
		for j, v := range row {
			ds.X0.Set(i, j, v)
		}
	}
	return ds, []float64{1, 0, 0.5, 0}
}

func TestSignatureDeterministic(t *testing.T) {
	ds, e := sigDataset(t)
	cfg := Config{K: 3, Alpha: 0.9}.WithDefaults(4)
	if Signature(ds, e, nil, cfg) != Signature(ds, e, nil, cfg) {
		t.Fatal("same inputs hash differently")
	}
	if DataSignature(ds, e, nil) != DataSignature(ds, e, nil) {
		t.Fatal("same data hashes differently")
	}
	if ConfigSignature(cfg) != ConfigSignature(cfg) {
		t.Fatal("same config hashes differently")
	}
}

func TestDataSignatureSensitivity(t *testing.T) {
	ds, e := sigDataset(t)
	base := DataSignature(ds, e, nil)

	e2 := append([]float64(nil), e...)
	e2[1] = 0.25
	if DataSignature(ds, e2, nil) == base {
		t.Fatal("changed error vector did not change the signature")
	}
	if DataSignature(ds, e, []float64{1, 1, 1, 2}) == base {
		t.Fatal("adding weights did not change the signature")
	}

	// A different matrix changes the signature.
	ds2 := &frame.Dataset{
		Name:     "sig2",
		X0:       frame.NewIntMatrix(4, 2),
		Features: []frame.Feature{{Name: "a", Domain: 2}, {Name: "b", Domain: 2}},
	}
	for i := 0; i < 4; i++ {
		ds2.X0.Set(i, 0, 1)
		ds2.X0.Set(i, 1, 1+i%2)
	}
	if DataSignature(ds2, e, nil) == base {
		t.Fatal("different matrix did not change the signature")
	}
}

func TestConfigSignatureSensitivity(t *testing.T) {
	base := Config{}.WithDefaults(1000)
	baseSig := ConfigSignature(base)

	mutations := map[string]Config{
		"K":           {K: base.K + 1, Sigma: base.Sigma, Alpha: base.Alpha, MaxCandidatesPerLevel: base.MaxCandidatesPerLevel},
		"Sigma":       {K: base.K, Sigma: base.Sigma + 1, Alpha: base.Alpha, MaxCandidatesPerLevel: base.MaxCandidatesPerLevel},
		"Alpha":       {K: base.K, Sigma: base.Sigma, Alpha: base.Alpha / 2, MaxCandidatesPerLevel: base.MaxCandidatesPerLevel},
		"MaxCand":     {K: base.K, Sigma: base.Sigma, Alpha: base.Alpha, MaxCandidatesPerLevel: base.MaxCandidatesPerLevel + 1},
		"SizePrune":   {K: base.K, Sigma: base.Sigma, Alpha: base.Alpha, MaxCandidatesPerLevel: base.MaxCandidatesPerLevel, DisableSizePruning: true},
		"ScorePrune":  {K: base.K, Sigma: base.Sigma, Alpha: base.Alpha, MaxCandidatesPerLevel: base.MaxCandidatesPerLevel, DisableScorePruning: true},
		"ParentPrune": {K: base.K, Sigma: base.Sigma, Alpha: base.Alpha, MaxCandidatesPerLevel: base.MaxCandidatesPerLevel, DisableParentHandling: true},
		"Dedup":       {K: base.K, Sigma: base.Sigma, Alpha: base.Alpha, MaxCandidatesPerLevel: base.MaxCandidatesPerLevel, DisableDedup: true},
		"Priority":    {K: base.K, Sigma: base.Sigma, Alpha: base.Alpha, MaxCandidatesPerLevel: base.MaxCandidatesPerLevel, PriorityEnumeration: true},
	}
	for name, cfg := range mutations {
		if ConfigSignature(cfg) == baseSig {
			t.Errorf("changing %s did not change the config signature", name)
		}
	}

	// Execution-plan and depth fields are excluded by design: MaxLevel
	// extension resume and cross-plan resume both rely on it.
	equiv := base
	equiv.MaxLevel = 3
	equiv.BlockSize = 64
	equiv.DenseEval = true
	equiv.BitsetEval = BitsetOn
	if ConfigSignature(equiv) != baseSig {
		t.Fatal("MaxLevel/BlockSize/DenseEval/BitsetEval must not affect the config signature")
	}
}

func TestDefaultedConfigSignatureMatchesExplicit(t *testing.T) {
	n := 5000
	implicit := Config{}.WithDefaults(n)
	explicit := Config{K: DefaultK, Alpha: DefaultAlpha, Sigma: 50, MaxCandidatesPerLevel: 2_000_000}.WithDefaults(n)
	if ConfigSignature(implicit) != ConfigSignature(explicit) {
		t.Fatal("defaulted config does not hash like its explicit equivalent")
	}
}

// TestCheckpointUsesSharedSignature pins that the checkpoint file records
// exactly Signature(...): a checkpoint written through the public run path
// must load under the shared helper's value and be refused under any other.
func TestCheckpointUsesSharedSignature(t *testing.T) {
	ds, e := sigDataset(t)
	cfg := Config{K: 2, Sigma: 1, Alpha: 0.9}.WithDefaults(4)
	path := filepath.Join(t.TempDir(), "sig.ck")

	ck := &checkpointer{path: path, sig: Signature(ds, e, nil, cfg)}
	if err := ck.save(1, newTopK(2, 1), &level{}, &Result{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}

	// Same signature loads.
	load := &checkpointer{path: path, sig: Signature(ds, e, nil, cfg)}
	if lvl, err := load.load(newTopK(2, 1), &level{}, &Result{}); err != nil || lvl != 1 {
		t.Fatalf("load with matching signature: level %d, err %v", lvl, err)
	}

	// A different config signature is refused.
	other := cfg
	other.K = cfg.K + 1
	bad := &checkpointer{path: path, sig: Signature(ds, e, nil, other)}
	if _, err := bad.load(newTopK(2, 1), &level{}, &Result{}); err == nil {
		t.Fatal("checkpoint with mismatched signature was accepted")
	}
}
