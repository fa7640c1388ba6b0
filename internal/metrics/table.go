package metrics

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table accumulates experiment rows and renders them as an aligned plain-text
// table, the format of the cmd/vcesim output.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// AddStrings appends one row of already formatted cells; the table keeps
// row and does not copy it.
func (t *Table) AddStrings(row []string) {
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// Rows returns the formatted data rows (for tests and downstream rendering).
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}

// Cell returns the formatted cell at (row, col).
func (t *Table) Cell(row, col int) string { return t.rows[row][col] }

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// WriteCSV writes the table as RFC 4180 CSV: a header row of column names
// followed by the data rows. Cells containing commas, quotes or newlines are
// quoted by the encoder. The title is not part of the CSV (it belongs to the
// artifact's file name), and an empty table still yields a header row so
// downstream loaders see the schema.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// tableJSON is the stable on-disk JSON shape of a table.
type tableJSON struct {
	Title   string     `json:"title,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// WriteJSON writes the table as a JSON object {title, columns, rows}. Rows is
// always present (an empty table marshals as an empty array, not null).
func (t *Table) WriteJSON(w io.Writer) error {
	doc := tableJSON{Title: t.Title, Columns: t.Columns, Rows: t.Rows()}
	if doc.Rows == nil {
		doc.Rows = [][]string{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Markdown renders the table as a GitHub-flavoured Markdown table (without
// the title). Pipes inside cells are escaped so they cannot break the row
// structure.
func (t *Table) Markdown() string {
	esc := func(s string) string { return strings.ReplaceAll(s, "|", "\\|") }
	var b strings.Builder
	b.WriteString("| ")
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteString(" | ")
		}
		b.WriteString(esc(c))
	}
	b.WriteString(" |\n|")
	for range t.Columns {
		b.WriteString(" --- |")
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		b.WriteString("| ")
		for i, cell := range row {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(esc(cell))
		}
		b.WriteString(" |\n")
	}
	return b.String()
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := width[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range width {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
