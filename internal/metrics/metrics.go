// Package metrics provides the accuracy and scaling metrics the paper
// reports, plus fixed-width table formatting for the experiment harnesses.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Perplexity converts mean cross-entropy (nats/token) to perplexity.
func Perplexity(meanNats float64) float64 { return math.Exp(meanNats) }

// BPC converts mean cross-entropy (nats/char) to bits per character.
func BPC(meanNats float64) float64 { return meanNats / math.Ln2 }

// CompressionRatio computes the §V-C metric: corpus bytes divided by
// (bits-per-char · chars / 8). The paper reports 6.3 for Tieba (perplexity
// 11.1 at 2.71 bytes/char) against 6.8 for the Amazon SOTA.
func CompressionRatio(bytesPerChar, bpc float64) float64 {
	return bytesPerChar * 8 / bpc
}

// AccuracyImprovement is the Table V metric: relative perplexity reduction
// from a baseline ("a 93 GB corpus on 192 GPUs delivers 35% accuracy
// improvement" = (17.06−11.1)/17.06).
func AccuracyImprovement(baselinePPL, ppl float64) float64 {
	if baselinePPL <= 0 {
		return 0
	}
	return (baselinePPL - ppl) / baselinePPL
}

// HumanBytes renders a byte count the way the paper's text does (GB with
// decimal prefixes).
func HumanBytes(b int64) string {
	switch {
	case b >= 1e12:
		return fmt.Sprintf("%.2f TB", float64(b)/1e12)
	case b >= 1e9:
		return fmt.Sprintf("%.2f GB", float64(b)/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.2f MB", float64(b)/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.2f KB", float64(b)/1e3)
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// Table accumulates rows and renders a fixed-width text table, the output
// format of every experiment harness.
type Table struct {
	Title   string
	headers []string
	units   []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends one row; cells beyond the header count are dropped,
// missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// SetUnits annotates the columns with units ("ms", "tok/s", "nats"; ""
// for dimensionless columns). Units beyond the header count are dropped,
// missing units are empty. The rendered header becomes "name [unit]", so
// a reader never has to guess a column's dimension. Returns the table for
// chaining.
func (t *Table) SetUnits(units ...string) *Table {
	t.units = make([]string, len(t.headers))
	for i := range t.units {
		if i < len(units) {
			t.units[i] = units[i]
		}
	}
	return t
}

// headerCells returns the headers as rendered: "name [unit]" for columns
// with a unit, bare name otherwise.
func (t *Table) headerCells() []string {
	cells := make([]string, len(t.headers))
	for i, h := range t.headers {
		if t.units != nil && t.units[i] != "" {
			cells[i] = h + " [" + t.units[i] + "]"
		} else {
			cells[i] = h
		}
	}
	return cells
}

// String renders the table.
func (t *Table) String() string {
	headers := t.headerCells()
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
