package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// WritePrometheus writes the registry in Prometheus text exposition format
// (version 0.0.4): counters and gauges as single samples, histograms as
// cumulative `_bucket{le=…}` series (empty buckets elided, `+Inf` always
// present) plus `_sum` and `_count`. Labelled instruments sharing a family
// emit one TYPE line per family, as the format requires. Registered
// collectors run first.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	counters, gauges, hists := r.collect()

	typed := make(map[string]bool)
	emitType := func(family, kind string) error {
		if typed[family] {
			return nil
		}
		typed[family] = true
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, kind)
		return err
	}

	for _, c := range counters {
		family, _ := splitName(c.name)
		if err := emitType(family, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", c.name, c.v.Value()); err != nil {
			return err
		}
	}
	for _, g := range gauges {
		family, _ := splitName(g.name)
		if err := emitType(family, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.v.Value())); err != nil {
			return err
		}
	}
	for _, nh := range hists {
		h := nh.v
		family, labels := splitName(nh.name)
		if err := emitType(family, "histogram"); err != nil {
			return err
		}
		counts, total := h.snapshot()
		var cum int64
		for i, c := range counts {
			cum += c
			if c == 0 {
				continue
			}
			_, hi := bucketBounds(i)
			le := formatFloat(float64(hi) * h.factor)
			if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", family, labelPrefix(labels), le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", family, labelPrefix(labels), total); err != nil {
			return err
		}
		sumName, countName := family+"_sum", family+"_count"
		if labels != "" {
			sumName += "{" + labels + "}"
			countName += "{" + labels + "}"
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", sumName, formatFloat(float64(h.Sum())*h.factor)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", countName, total); err != nil {
			return err
		}
	}
	return nil
}

// labelPrefix renders a raw label body as the prefix of a larger label
// set ("" or `a="1",`).
func labelPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

// formatFloat renders a float the compact way Prometheus clients expect.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseText reads a text exposition, as WritePrometheus writes it, into a
// map from each series — its name and label set exactly as written — to
// its value. Comment and blank lines are skipped. A sample line splits at
// its last space, since a label value may itself contain one; a line with
// no name, no value or an unparsable value is an error that names it. A
// line may be of any length, as a label value may.
func ParseText(r io.Reader) (map[string]float64, error) {
	series := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, math.MaxInt)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("telemetry: exposition line %d %q: want a series and a value", n, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: exposition line %d %q: bad value", n, line)
		}
		series[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading exposition: %w", err)
	}
	return series, nil
}

// Handler serves the registry in the text exposition format, whatever the
// request asks for.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
