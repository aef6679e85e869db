// Package dash renders a live terminal dashboard over the telemetry
// layer: successive registry snapshots become windowed rates and trends,
// drawn as aligned rows with Unicode sparklines using nothing but ANSI
// escapes — no terminal library, no dependencies. cmd/zipflm-top drives
// the Board, polling the JSON snapshot of any /metrics endpoint — the
// public -addr of zipflm-serve or the -metrics-addr observer listener of
// zipflm-serve and zipflm-train.
package dash

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"zipflm/internal/telemetry"
)

// spec declares one dashboard panel: a display name, a unit, and a
// derivation from two successive snapshots. A panel only appears once its
// derivation has succeeded (its metrics exist), so one board serves both
// the trainer's and the server's metric families without configuration.
type spec struct {
	name string
	unit string
	// value derives the panel's current reading from the previous and
	// current snapshot, dt wall-seconds apart (dt > 0).
	value func(prev, cur telemetry.Snapshot, dt float64) (float64, bool)
}

// rate derives a per-second rate from a counter's delta.
func rate(counter string) func(prev, cur telemetry.Snapshot, dt float64) (float64, bool) {
	return func(prev, cur telemetry.Snapshot, dt float64) (float64, bool) {
		p, okP := prev.Counters[counter]
		c, okC := cur.Counters[counter]
		if !okP || !okC {
			return 0, false
		}
		return float64(c-p) / dt, true
	}
}

// gauge reads a gauge as-is.
func gauge(name string, scale float64) func(prev, cur telemetry.Snapshot, dt float64) (float64, bool) {
	return func(_, cur telemetry.Snapshot, _ float64) (float64, bool) {
		v, ok := cur.Gauges[name]
		return v * scale, ok
	}
}

// wmean derives a histogram's windowed mean (delta sum over delta count)
// in exported units times scale; falls back to not-ok when the window saw
// no observations.
func wmean(hist string, scale float64) func(prev, cur telemetry.Snapshot, dt float64) (float64, bool) {
	return func(prev, cur telemetry.Snapshot, _ float64) (float64, bool) {
		p, okP := prev.Histograms[hist]
		c, okC := cur.Histograms[hist]
		if !okP || !okC || c.Count <= p.Count {
			return 0, false
		}
		return (c.Sum - p.Sum) / float64(c.Count-p.Count) * scale, true
	}
}

// gaugeRatio derives 100·a/(a+b) from the deltas of two gauges that count
// monotonically (the serve layer folds cache counters into gauges).
func gaugeRatio(a, b string) func(prev, cur telemetry.Snapshot, dt float64) (float64, bool) {
	return func(prev, cur telemetry.Snapshot, _ float64) (float64, bool) {
		da := cur.Gauges[a] - prev.Gauges[a]
		db := cur.Gauges[b] - prev.Gauges[b]
		if _, ok := cur.Gauges[a]; !ok {
			return 0, false
		}
		if da+db <= 0 {
			return 0, false
		}
		return 100 * da / (da + db), true
	}
}

// burnMax reads the maximum SLO burn-rate gauge across every objective
// and window — the single number that says "an SLO is burning budget".
func burnMax(prev, cur telemetry.Snapshot, dt float64) (float64, bool) {
	max, found := 0.0, false
	for name, v := range cur.Gauges {
		if strings.HasPrefix(name, "zipflm_slo_burn_rate{") {
			found = true
			if v > max {
				max = v
			}
		}
	}
	return max, found
}

// specs is the board's panel catalog, in display order: the serving rows,
// the training rows, then the cross-cutting SLO row. Histogram units in a
// Snapshot are already exported (seconds), hence the 1e3 scales to ms.
var specs = []spec{
	{"serve tok/s", "tok/s", rate("zipflm_serve_tokens_total")},
	{"serve req/s", "req/s", rate("zipflm_serve_completed_total")},
	{"latency", "ms", wmean("zipflm_serve_latency_seconds", 1e3)},
	{"queue depth", "", gauge("zipflm_serve_queue_depth", 1)},
	{"batch occupancy", "seq", gauge("zipflm_serve_batch_occupancy", 1)},
	{"cache hit rate", "%", gaugeRatio("zipflm_serve_result_cache_hits", "zipflm_serve_result_cache_misses")},
	{"shed/s", "req/s", rate("zipflm_serve_shed_total")},
	{"train tok/s", "tok/s", rate("zipflm_train_tokens_total")},
	{"step compute", "ms", wmean("zipflm_train_compute_seconds", 1e3)},
	{"step sync", "ms", wmean("zipflm_train_sync_seconds", 1e3)},
	{"goodput", "", gauge("zipflm_train_goodput_ratio", 1)},
	{"sim clock", "s", gauge("zipflm_train_sim_seconds", 1)},
	{"SLO burn max", "×", burnMax},
}

// sparkLevels are the eight block heights a sparkline cell can take.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a fixed-width trend strip, right-aligned
// (newest value rightmost), scaled to the series' own min..max. A flat
// series draws at the lowest level; missing leading history is blank.
func Sparkline(values []float64, width int) string {
	if width <= 0 {
		return ""
	}
	if len(values) > width {
		values = values[len(values)-width:]
	}
	lo, hi := 0.0, 0.0
	for i, v := range values {
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for i := 0; i < width-len(values); i++ {
		b.WriteByte(' ')
	}
	for _, v := range values {
		level := 0
		if hi > lo {
			level = int((v - lo) / (hi - lo) * float64(len(sparkLevels)-1))
			if level < 0 {
				level = 0
			}
			if level >= len(sparkLevels) {
				level = len(sparkLevels) - 1
			}
		}
		b.WriteRune(sparkLevels[level])
	}
	return b.String()
}

// panel is one live row: its spec plus the trend ring.
type panel struct {
	spec
	series []float64
	seen   bool
	last   float64
}

// Board accumulates snapshots and renders frames. Not safe for concurrent
// use; drive it from one goroutine.
type Board struct {
	width  int
	panels []*panel
	slo    []string

	havePrev bool
	prevAt   time.Time
	prev     telemetry.Snapshot
	start    time.Time
	frames   int
}

// DefaultWidth is the sparkline width when Config leaves it zero.
const DefaultWidth = 36

// New returns an empty board with the given sparkline width (<=0 takes
// DefaultWidth).
func New(width int) *Board {
	if width <= 0 {
		width = DefaultWidth
	}
	b := &Board{width: width}
	for i := range specs {
		b.panels = append(b.panels, &panel{spec: specs[i]})
	}
	return b
}

// Observe feeds the next snapshot, stamped at its collection time.
func (b *Board) Observe(at time.Time, snap telemetry.Snapshot) {
	if b.frames == 0 {
		b.start = at
	}
	b.frames++
	if b.havePrev {
		dt := at.Sub(b.prevAt).Seconds()
		if dt > 0 {
			for _, p := range b.panels {
				if v, ok := p.value(b.prev, snap, dt); ok {
					p.seen = true
					p.last = v
					p.series = append(p.series, v)
					if len(p.series) > b.width {
						p.series = p.series[len(p.series)-b.width:]
					}
				}
			}
		}
	}
	b.slo = sloLines(snap)
	b.prev, b.prevAt, b.havePrev = snap, at, true
}

// sloLines summarizes the per-objective SLO gauges for the footer.
func sloLines(snap telemetry.Snapshot) []string {
	var names []string
	for name := range snap.Gauges {
		if rest, ok := strings.CutPrefix(name, `zipflm_slo_compliant{slo="`); ok {
			if obj, _, ok := strings.Cut(rest, `"`); ok {
				names = append(names, obj)
			}
		}
	}
	sort.Strings(names)
	var out []string
	for _, obj := range names {
		verdict := "MET"
		if snap.Gauges[fmt.Sprintf(`zipflm_slo_compliant{slo=%q}`, obj)] == 0 {
			verdict = "VIOLATED"
		}
		cur := snap.Gauges[fmt.Sprintf(`zipflm_slo_current{slo=%q}`, obj)]
		target := snap.Gauges[fmt.Sprintf(`zipflm_slo_target{slo=%q}`, obj)]
		budget := snap.Gauges[fmt.Sprintf(`zipflm_slo_budget_used{slo=%q}`, obj)]
		out = append(out, fmt.Sprintf("SLO %-16s %-8s current %.4g target %.4g budget %.0f%%",
			obj, verdict, cur, target, 100*budget))
	}
	return out
}

// ansi sequences: clear screen once, then home + erase per frame, so the
// terminal never scrolls and never flickers a full clear.
const (
	ansiClear     = "\x1b[2J"
	ansiHome      = "\x1b[H"
	ansiEraseLine = "\x1b[K"
	ansiEraseRest = "\x1b[J"
)

// Frame renders the current state. With ansi true the frame starts with
// cursor-home and erases stale content in place (call once per tick on a
// terminal); with ansi false it is plain text, one frame per call — the
// mode CI smokes and log captures use.
func (b *Board) Frame(title string, ansi bool) string {
	var out strings.Builder
	eol := "\n"
	if ansi {
		if b.frames <= 1 {
			out.WriteString(ansiClear)
		}
		out.WriteString(ansiHome)
		eol = ansiEraseLine + "\n"
	}
	up := time.Duration(0)
	if b.frames > 0 {
		up = b.prevAt.Sub(b.start).Round(time.Second)
	}
	fmt.Fprintf(&out, "%s — up %s, %d samples%s", title, up, b.frames, eol)
	out.WriteString(eol)

	shown := 0
	for _, p := range b.panels {
		if !p.seen {
			continue
		}
		shown++
		fmt.Fprintf(&out, "  %-16s %10s %-5s %s%s",
			p.name, formatValue(p.last), p.unit, Sparkline(p.series, b.width), eol)
	}
	if shown == 0 {
		out.WriteString("  (waiting for two samples to compute trends)" + eol)
	}
	if len(b.slo) > 0 {
		out.WriteString(eol)
		for _, line := range b.slo {
			out.WriteString("  " + line + eol)
		}
	}
	if ansi {
		out.WriteString(ansiEraseRest)
	}
	return out.String()
}

// formatValue renders a reading compactly: integers stay integral, large
// values drop decimals, small ones keep precision.
func formatValue(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e9:
		return fmt.Sprintf("%d", int64(v))
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}
