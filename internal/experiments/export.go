package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Machine-readable table output, so regenerated figures can feed external
// plotting tools. Charts and free-form notes are text-only and are
// dropped from these formats.

// WriteCSV emits the table as RFC-4180 CSV (header row first).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return fmt.Errorf("experiments: csv header: %w", err)
	}
	for i, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("experiments: csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonTable is the JSON wire form.
type jsonTable struct {
	ID     string              `json:"id"`
	Title  string              `json:"title"`
	Header []string            `json:"header"`
	Rows   []map[string]string `json:"rows"`
	Notes  []string            `json:"notes,omitempty"`
}

// WriteJSON emits the table as a JSON object with one map per row keyed
// by column name.
func (t *Table) WriteJSON(w io.Writer) error {
	jt := jsonTable{ID: t.ID, Title: t.Title, Header: t.Header}
	for _, row := range t.Rows {
		m := make(map[string]string, len(t.Header))
		for i, h := range t.Header {
			if i < len(row) {
				m[h] = row[i]
			}
		}
		jt.Rows = append(jt.Rows, m)
	}
	for _, n := range t.Notes {
		// Multi-line notes are rendered charts; skip them in JSON.
		if !strings.Contains(n, "\n") {
			jt.Notes = append(jt.Notes, n)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jt)
}

// Format selects a table rendering.
type Format string

// Supported output formats.
const (
	FormatText Format = "text"
	FormatCSV  Format = "csv"
	FormatJSON Format = "json"
)

// Write renders the table in the requested format.
func (t *Table) Write(w io.Writer, f Format) error {
	switch f {
	case FormatText, "":
		t.Render(w)
		return nil
	case FormatCSV:
		return t.WriteCSV(w)
	case FormatJSON:
		return t.WriteJSON(w)
	}
	return fmt.Errorf("experiments: unknown format %q (text|csv|json)", f)
}
