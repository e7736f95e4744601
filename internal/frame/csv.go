package frame

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// ReadCSV parses a CSV stream with a header row into a Frame. Columns where
// every non-empty value parses as a float become Numeric; all others become
// Categorical. Empty numeric cells become NaN-free zeros only if allowEmpty
// is set via the empty sentinel ""; they are otherwise errors — SliceLine's
// preprocessing expects complete, recodeable inputs.
func ReadCSV(r io.Reader) (*Frame, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("frame: reading csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("frame: empty csv input")
	}
	header := records[0]
	rows := records[1:]
	nCols := len(header)
	for i, rec := range rows {
		if len(rec) != nCols {
			return nil, fmt.Errorf("frame: row %d has %d fields, want %d", i+2, len(rec), nCols)
		}
	}
	cols := make([]Column, nCols)
	for j := 0; j < nCols; j++ {
		numeric := true
		for _, rec := range rows {
			if rec[j] == "" {
				numeric = false
				break
			}
			if _, err := strconv.ParseFloat(rec[j], 64); err != nil {
				numeric = false
				break
			}
		}
		if numeric && len(rows) > 0 {
			floats := make([]float64, len(rows))
			for i, rec := range rows {
				floats[i], _ = strconv.ParseFloat(rec[j], 64)
			}
			cols[j] = Column{Name: header[j], Kind: Numeric, Floats: floats}
		} else {
			strs := make([]string, len(rows))
			for i, rec := range rows {
				strs[i] = rec[j]
			}
			cols[j] = Column{Name: header[j], Kind: Categorical, Strings: strs}
		}
	}
	return NewFrame(cols)
}
