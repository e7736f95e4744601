package datasets

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sliceline/internal/core"
)

const sampleCSV = `city,tier,income,label
oslo,a,10.5,1
bergen,b,20.25,0
oslo,a,30,1
tromso,c,15.75,0
bergen,b,12,1
oslo,c,28.5,0
`

func TestLoadCSV(t *testing.T) {
	l, err := LoadCSV(strings.NewReader(sampleCSV), "label", 4)
	if err != nil {
		t.Fatalf("LoadCSV: %v", err)
	}
	if l.DS.NumRows() != 6 {
		t.Errorf("rows = %d, want 6", l.DS.NumRows())
	}
	if l.DS.NumFeatures() != 3 {
		t.Errorf("features = %d, want 3 (label must be excluded)", l.DS.NumFeatures())
	}
	if len(l.DS.Y) != 6 {
		t.Errorf("labels = %d, want 6", len(l.DS.Y))
	}
	if err := l.DS.Validate(); err != nil {
		t.Errorf("loaded dataset invalid: %v", err)
	}
	if l.Enc == nil || l.Enc.X == nil {
		t.Fatal("loader did not produce a one-hot encoding")
	}
}

func TestLoadCSVDrop(t *testing.T) {
	l, err := LoadCSV(strings.NewReader(sampleCSV), "label", 4, "income")
	if err != nil {
		t.Fatalf("LoadCSV with drop: %v", err)
	}
	if l.DS.NumFeatures() != 2 {
		t.Errorf("features = %d, want 2 after dropping income", l.DS.NumFeatures())
	}
	for _, f := range l.DS.Features {
		if f.Name == "income" {
			t.Error("dropped column leaked into the features")
		}
	}
}

func TestLoadCSVMalformedInputs(t *testing.T) {
	cases := []struct {
		name, csv, label string
	}{
		{"empty file", "", ""},
		{"header only", "a,b\n", ""},
		{"ragged row", "a,b\nx,1\ny\n", ""},
		{"extra field", "a,b\nx,1\ny,2,3\n", ""},
		{"missing label column", sampleCSV, "nope"},
		{"categorical label", sampleCSV, "city"},
		{"unbalanced quote", "a,b\n\"x,1\n", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadCSV(strings.NewReader(tc.csv), tc.label, 4); err == nil {
				t.Errorf("LoadCSV accepted %s", tc.name)
			}
		})
	}
}

// TestLoadCSVDeterministicSignature pins the loader's core guarantee: the
// same bytes load to the same encoding, measured by the exported core data
// signature (which is also what content-addresses server-side datasets).
func TestLoadCSVDeterministicSignature(t *testing.T) {
	sig := func(l *Loaded) uint64 {
		return core.DataSignature(l.Enc, l.DS.Y, nil)
	}
	first, err := LoadCSV(strings.NewReader(sampleCSV), "label", 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := LoadCSV(strings.NewReader(sampleCSV), "label", 4)
		if err != nil {
			t.Fatal(err)
		}
		if sig(again) != sig(first) {
			t.Fatalf("load %d produced signature %x, first load %x", i, sig(again), sig(first))
		}
	}
	// A semantically different input must not collide.
	mutated := strings.Replace(sampleCSV, "10.5", "11.5", 1)
	other, err := LoadCSV(strings.NewReader(mutated), "label", 4)
	if err != nil {
		t.Fatal(err)
	}
	if sig(other) == sig(first) {
		t.Error("mutated csv loads to the same signature")
	}
}

// TestLoadCSVFileRoundTrip writes the CSV to disk, reloads it with
// LoadCSVFile, and verifies the encoding signature matches a direct load.
func TestLoadCSVFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sample.csv")
	if err := os.WriteFile(path, []byte(sampleCSV), 0o644); err != nil {
		t.Fatal(err)
	}

	direct, err := LoadCSV(strings.NewReader(sampleCSV), "label", 4)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadCSVFile(path, "label", 4)
	if err != nil {
		t.Fatal(err)
	}
	got := core.DataSignature(reloaded.Enc, reloaded.DS.Y, nil)
	want := core.DataSignature(direct.Enc, direct.DS.Y, nil)
	if got != want {
		t.Fatalf("round-trip signature %x, direct load %x", got, want)
	}

	if _, err := LoadCSVFile(filepath.Join(t.TempDir(), "missing.csv"), "", 4); err == nil {
		t.Error("LoadCSVFile accepted a missing file")
	}
}
