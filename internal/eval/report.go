package eval

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Report is one experiment result as a typed table: every number an
// experiment reports is a cell, so the three renderings below — aligned text,
// CSV and JSON — carry the same data. Title and Notes are prose: they name
// and explain the table, and hold no measurement of their own.
type Report struct {
	Title   string
	Columns []Column
	// Rows holds one value per column: int, int64, float64 or string.
	Rows  [][]any
	Notes []string
}

// Column names one field of a Report. Prec is the number of decimals its
// float64 values are rendered with, in every format alike.
type Column struct {
	Name string
	Prec int
}

// cell renders one value at its column's precision.
func (c Column) cell(v any) string {
	switch v := v.(type) {
	case float64:
		return strconv.FormatFloat(v, 'f', c.Prec, 64)
	case int:
		return strconv.Itoa(v)
	case int64:
		return strconv.FormatInt(v, 10)
	case string:
		return v
	}
	panic(fmt.Sprintf("eval: report cell of type %T", v))
}

// cells renders the header and every row as strings.
func (r *Report) cells() (header []string, rows [][]string) {
	for _, c := range r.Columns {
		header = append(header, c.Name)
	}
	for _, row := range r.Rows {
		out := make([]string, len(row))
		for i, v := range row {
			out[i] = r.Columns[i].cell(v)
		}
		rows = append(rows, out)
	}
	return header, rows
}

// Text renders the title, the table with left-aligned columns, and the
// notes, one per line.
func (r *Report) Text() string {
	header, rows := r.cells()
	lines := append([][]string{header}, rows...)
	width := make([]int, len(header))
	for _, row := range lines {
		for i, s := range row {
			width[i] = max(width[i], len(s))
		}
	}
	var b strings.Builder
	b.WriteString(r.Title)
	b.WriteByte('\n')
	for _, row := range lines {
		for i, s := range row {
			if i == len(row)-1 {
				b.WriteString(s)
				break
			}
			fmt.Fprintf(&b, "%-*s", width[i]+2, s)
		}
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the header row and one record per row.
func (r *Report) CSV() string {
	header, rows := r.cells()
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write(header)
	w.WriteAll(rows) // flushes; a strings.Builder cannot fail
	return b.String()
}

// MarshalJSON renders the report as an object whose rows are arrays of JSON
// numbers and strings, each float written at its column's precision.
func (r *Report) MarshalJSON() ([]byte, error) {
	header, _ := r.cells()
	rows := make([][]any, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = make([]any, len(row))
		for j, v := range row {
			if _, ok := v.(string); ok {
				rows[i][j] = v
			} else {
				rows[i][j] = json.Number(r.Columns[j].cell(v))
			}
		}
	}
	return json.Marshal(struct {
		Title   string   `json:"title"`
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
		Notes   []string `json:"notes,omitempty"`
	}{r.Title, header, rows, r.Notes})
}

// Report renders the experimental setup (§6.2) the other reports ran under.
func (c Config) Report() *Report {
	c = c.fillDefaults()
	cc := c.Corpus.FillDefaults()
	qc := c.QueryGen.FillDefaults()
	return &Report{
		Title:   "Experimental setup (cf. paper §6.2)",
		Columns: []Column{{"setting", 0}, {"value", 2}},
		Rows: [][]any{
			{"corpus_docs", cc.NumDocs},
			{"corpus_topics", cc.NumTopics},
			{"doc_len_min", cc.DocLenMin},
			{"doc_len_max", cc.DocLenMax},
			{"original_queries", cc.NumQueries},
			{"derived_per_original", qc.PerOriginal},
			{"total_queries", cc.NumQueries * (1 + qc.PerOriginal)},
			{"query_overlap", qc.Overlap},
			{"peers", c.Peers},
			{"initial_terms", c.Core.InitialTerms},
			{"terms_per_iteration", c.Core.TermsPerIteration},
			{"max_index_terms", c.Core.MaxIndexTerms},
			{"history_cap", c.Core.HistoryCap},
			{"topk", c.TopK},
			{"learning_iterations", c.LearningIterations},
		},
		Notes: []string{"Chord overlay, MD5 128-bit identifiers."},
	}
}
