package frame

import (
	"bytes"
	"encoding/csv"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestReadCSVTypes(t *testing.T) {
	in := "name,age,city\nann,34,berlin\nbob,28,graz\n"
	f, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 2 || f.NumCols() != 3 {
		t.Fatalf("shape = %dx%d, want 2x3", f.NumRows(), f.NumCols())
	}
	name, err := f.Column("name")
	if err != nil || name.Kind != Categorical {
		t.Fatalf("name column: err=%v kind=%v", err, name.Kind)
	}
	age, err := f.Column("age")
	if err != nil || age.Kind != Numeric {
		t.Fatalf("age column: err=%v kind=%v", err, age.Kind)
	}
	if !reflect.DeepEqual(age.Floats, []float64{34, 28}) {
		t.Fatalf("age = %v", age.Floats)
	}
}

func TestReadCSVEmptyInput(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestReadCSVMalformed(t *testing.T) {
	// A quoted field that never closes is a csv syntax error.
	if _, err := ReadCSV(strings.NewReader("a,b\n\"oops,1\n")); err == nil {
		t.Fatal("expected error for malformed csv")
	}
}

func TestReadCSVEmptyCellForcesCategorical(t *testing.T) {
	f, err := ReadCSV(strings.NewReader("k,v\na,1\nb,\nc,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := f.Column("v")
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != Categorical {
		t.Fatalf("kind = %v, want Categorical when empty cells exist", c.Kind)
	}
}

// writeCSV renders a frame as CSV with a header row: the write half of the
// round trips that pin ReadCSV's normalization.
func writeCSV(w io.Writer, f *Frame) error {
	cw := csv.NewWriter(w)
	header := make([]string, f.NumCols())
	for j, c := range f.Columns() {
		header[j] = c.Name
	}
	if err := writeRecord(cw, w, header); err != nil {
		return err
	}
	rec := make([]string, f.NumCols())
	for i := 0; i < f.NumRows(); i++ {
		for j, c := range f.Columns() {
			if c.Kind == Categorical {
				rec[j] = c.Strings[i]
			} else {
				rec[j] = strconv.FormatFloat(c.Floats[i], 'g', -1, 64)
			}
		}
		if err := writeRecord(cw, w, rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeRecord writes one CSV record, working around an encoding/csv
// asymmetry: the writer renders a record holding a single empty field as a
// blank line, which the reader then skips entirely. Such records are written
// as an explicitly quoted empty field.
func writeRecord(cw *csv.Writer, w io.Writer, rec []string) error {
	if len(rec) == 1 && rec[0] == "" {
		cw.Flush()
		if err := cw.Error(); err != nil {
			return err
		}
		_, err := io.WriteString(w, "\"\"\n")
		return err
	}
	return cw.Write(rec)
}

func TestCSVRoundTrip(t *testing.T) {
	orig, err := NewFrame([]Column{
		{Name: "cat", Kind: Categorical, Strings: []string{"x", "y"}},
		{Name: "num", Kind: Numeric, Floats: []float64{1.5, -2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cat, _ := back.Column("cat")
	num, _ := back.Column("num")
	if !reflect.DeepEqual(cat.Strings, []string{"x", "y"}) {
		t.Errorf("cat = %v", cat.Strings)
	}
	if !reflect.DeepEqual(num.Floats, []float64{1.5, -2}) {
		t.Errorf("num = %v", num.Floats)
	}
}
