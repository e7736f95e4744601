package core

import "testing"

func TestTopKRejectsInvalid(t *testing.T) {
	tk := newTopK(3, 10)
	tk.offer([]int{0}, -1, 50, 5, 1) // non-positive score
	tk.offer([]int{1}, 2, 5, 5, 1)   // below sigma
	if len(tk.entries) != 0 {
		t.Fatalf("entries = %d, want 0", len(tk.entries))
	}
	if tk.threshold() != 0 {
		t.Fatalf("threshold = %v, want 0 while not full", tk.threshold())
	}
}

func TestTopKOrdersAndTruncates(t *testing.T) {
	tk := newTopK(2, 1)
	tk.offer([]int{0}, 1, 10, 1, 1)
	tk.offer([]int{1}, 3, 10, 1, 1)
	tk.offer([]int{2}, 2, 10, 1, 1)
	if len(tk.entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(tk.entries))
	}
	if tk.entries[0].score != 3 || tk.entries[1].score != 2 {
		t.Fatalf("scores = %v, %v; want 3, 2", tk.entries[0].score, tk.entries[1].score)
	}
	if tk.threshold() != 2 {
		t.Fatalf("threshold = %v, want 2", tk.threshold())
	}
}

func TestTopKThresholdMonotone(t *testing.T) {
	tk := newTopK(2, 1)
	prev := tk.threshold()
	for _, sc := range []float64{0.5, 1.5, 1.0, 2.5, 3.0, 0.2} {
		tk.offer([]int{int(sc * 10)}, sc, 10, 1, 1)
		if th := tk.threshold(); th < prev {
			t.Fatalf("threshold decreased from %v to %v", prev, th)
		} else {
			prev = th
		}
	}
}

func TestTopKTieBreakPrefersLargerSlices(t *testing.T) {
	tk := newTopK(1, 1)
	tk.offer([]int{0}, 1, 10, 1, 1)
	tk.offer([]int{1}, 1, 20, 1, 1)
	if tk.entries[0].ss != 20 {
		t.Fatalf("kept size %v, want 20 (larger wins ties)", tk.entries[0].ss)
	}
}

func TestTopKSkipsWhenFullAndWorse(t *testing.T) {
	tk := newTopK(1, 1)
	tk.offer([]int{0}, 5, 10, 1, 1)
	tk.offer([]int{1}, 4, 10, 1, 1)
	if len(tk.entries) != 1 || tk.entries[0].score != 5 {
		t.Fatalf("entries = %+v", tk.entries)
	}
}

func TestLessCols(t *testing.T) {
	if !lessCols([]int{1, 2}, []int{1, 3}) {
		t.Error("lexicographic comparison failed")
	}
	if !lessCols([]int{1}, []int{1, 0}) {
		t.Error("prefix must compare smaller")
	}
	if lessCols([]int{2}, []int{1, 5}) {
		t.Error("ordering inverted")
	}
}
