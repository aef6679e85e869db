package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
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

// HistSnapshot is one histogram in the JSON snapshot.
type HistSnapshot struct {
	Unit  string  `json:"unit,omitempty"`
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// Snapshot is the exported JSON view of a registry: every counter, gauge
// and histogram by name, histograms reduced to count/sum/mean and the
// standard quantiles, all in exported units.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current values (collectors run first).
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return snap
	}
	counters, gauges, hists := r.collect()
	for _, c := range counters {
		snap.Counters[c.name] = c.v.Value()
	}
	for _, g := range gauges {
		snap.Gauges[g.name] = g.v.Value()
	}
	for _, nh := range hists {
		h, f := nh.v, nh.v.factor
		snap.Histograms[nh.name] = HistSnapshot{
			Unit:  h.unit,
			Count: h.Count(),
			Sum:   float64(h.Sum()) * f,
			Mean:  h.Mean() * f,
			P50:   float64(h.P50()) * f,
			P99:   float64(h.P99()) * f,
			P999:  float64(h.P999()) * f,
		}
	}
	return snap
}

// WriteJSON writes the Snapshot as indented JSON (map keys sort, so the
// output is deterministic for fixed values).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Handler serves the registry from one endpoint with content negotiation:
// Prometheus text format by default, the JSON snapshot when the request
// asks for JSON — either `Accept: application/json` or the ?format=json
// query parameter (the original split-path alias, kept working). An
// explicit ?format always wins over the Accept header.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if wantsJSON(req) {
			w.Header().Set("Content-Type", "application/json")
			r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// wantsJSON decides the exposition format for one request. The Accept
// check is deliberately simple — a scrape client either names
// application/json outright or it gets the text format; relative quality
// factors between the two are not worth parsing here.
func wantsJSON(req *http.Request) bool {
	switch req.URL.Query().Get("format") {
	case "json":
		return true
	case "prometheus", "text":
		return false
	}
	for _, accept := range req.Header.Values("Accept") {
		for _, part := range strings.Split(accept, ",") {
			mediaType, _, _ := strings.Cut(strings.TrimSpace(part), ";")
			if strings.TrimSpace(mediaType) == "application/json" {
				return true
			}
		}
	}
	return false
}
