package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestCompressExperiment gates the subsystem's acceptance invariants on the
// quick run: every compressed variant's measured dense wire bytes sit
// strictly below the uncompressed row, the rerun is bit-deterministic, and
// the repriced weak-scaling step improves on the baseline engine.
func TestCompressExperiment(t *testing.T) {
	rep := quickReport(t, "compress")
	if len(rep.Tables) != 2 {
		t.Fatalf("expected 2 tables, got %d", len(rep.Tables))
	}

	// Table 1: the "vs FP32" column must be 1.00x for the reference row
	// and < 1 for every compressed row.
	train := rep.Tables[0]
	rows := train.Rows()
	if len(rows) != 5 {
		t.Fatalf("expected 5 compressor rows, got %d", len(rows))
	}
	for i, row := range rows {
		f, err := strconv.ParseFloat(strings.TrimSuffix(row[2], "x"), 64)
		if err != nil {
			t.Fatalf("row %d ratio %q: %v", i, row[2], err)
		}
		if i == 0 {
			if f != 1 {
				t.Fatalf("reference row ratio %v, want 1.00x", f)
			}
			continue
		}
		if f >= 1 {
			t.Errorf("%s: wire ratio %vx not below the uncompressed row", row[0], f)
		}
	}
	// Loss deltas stay finite and modest — error feedback is working.
	for _, row := range rows {
		d, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			t.Fatalf("loss delta %q: %v", row[6], err)
		}
		if d > 0.5 || d < -0.5 {
			t.Errorf("%s: loss delta %v implausibly large", row[0], d)
		}
	}

	joined := strings.Join(rep.Notes, "\n")
	if strings.Contains(joined, "WARNING") {
		t.Fatalf("experiment raised a warning:\n%s", joined)
	}
	if !strings.Contains(joined, "deterministic: re-running the top-k configuration") {
		t.Fatalf("missing determinism assertion:\n%s", joined)
	}
	if !strings.Contains(joined, "improves the baseline engine's predicted step time") {
		t.Fatalf("missing weak-scaling improvement:\n%s", joined)
	}
	if !strings.Contains(joined, "Zipf policy") {
		t.Fatalf("missing Zipf policy note:\n%s", joined)
	}

	// Table 2: q8 step time strictly below FP32 on every running row.
	for _, row := range rep.Tables[1].Rows() {
		if strings.HasPrefix(row[1], "*") {
			continue
		}
		fp32, err1 := strconv.ParseFloat(row[1], 64)
		q8, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable step times %q %q", row[1], row[2])
		}
		if q8 > fp32 {
			t.Errorf("G=%s: q8 step %v above fp32 %v", row[0], q8, fp32)
		}
	}
}
