package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ErrEmpty is returned by Latest when the directory holds no checkpoints.
var ErrEmpty = errors.New("ckpt: no checkpoints in directory")

// Dir is an on-disk checkpoint store: one file per checkpointed step,
// written atomically, keeping the KeepLast most recent checkpoints for
// rollback after every save. Everything older is deleted.
type Dir struct {
	path     string
	keepLast int
}

// NewDir opens (creating if needed) a checkpoint directory. keepLast ≤ 0
// defaults to 3. keepEvery must be 0: it is kept only because the
// repository benchmark's harness (benchmark/train.go) passes it, and the
// archive tier it once enabled is gone.
func NewDir(path string, keepLast, keepEvery int) (*Dir, error) {
	if keepLast <= 0 {
		keepLast = 3
	}
	if keepEvery != 0 {
		return nil, fmt.Errorf("ckpt: KeepEvery is no longer supported and must be 0, got %d", keepEvery)
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return &Dir{path: path, keepLast: keepLast}, nil
}

// Path returns the directory path.
func (d *Dir) Path() string { return d.path }

// fileFor returns the canonical file name for a step.
func (d *Dir) fileFor(step int) string {
	return filepath.Join(d.path, fmt.Sprintf("step-%012d.ckpt", step))
}

// Save writes st under its step's canonical name (atomically, replacing
// any previous checkpoint of the same step) and applies retention. It
// returns the written path.
func (d *Dir) Save(st *State) (string, error) {
	path := d.fileFor(st.Step)
	if err := WriteFile(path, st); err != nil {
		return "", err
	}
	if err := d.retain(); err != nil {
		return "", err
	}
	return path, nil
}

// Steps lists the checkpointed steps in ascending order. Only canonical
// file names count: Sscanf-style loose matching would list stray files
// ("step-5.ckpt" unpadded, "….ckpt.bak" backups) as steps that Load could
// never open — and retention could then delete real checkpoints while
// counting phantoms.
func (d *Dir) Steps() ([]int, error) {
	entries, err := os.ReadDir(d.path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var steps []int
	for _, e := range entries {
		step, ok := parseStepName(e.Name())
		if ok {
			steps = append(steps, step)
		}
	}
	sort.Ints(steps)
	return steps, nil
}

// parseStepName inverts fileFor exactly.
func parseStepName(name string) (int, bool) {
	const prefix, suffix = "step-", ".ckpt"
	digits := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	// %012d pads to at least 12 digits (more only for absurdly large steps).
	if len(name) != len(prefix)+len(digits)+len(suffix) || len(digits) < 12 {
		return 0, false
	}
	step := 0
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		step = step*10 + int(c-'0')
	}
	return step, true
}

// Load opens the checkpoint for a specific step.
func (d *Dir) Load(step int) (*State, error) {
	return Open(d.fileFor(step))
}

// Latest opens the newest checkpoint, or ErrEmpty when there is none.
func (d *Dir) Latest() (*State, error) {
	steps, err := d.Steps()
	if err != nil {
		return nil, err
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("%w (%s)", ErrEmpty, d.path)
	}
	return d.Load(steps[len(steps)-1])
}

// retain deletes every checkpoint but the KeepLast most recent.
func (d *Dir) retain() error {
	steps, err := d.Steps()
	if err != nil {
		return err
	}
	if len(steps) <= d.keepLast {
		return nil
	}
	for _, step := range steps[:len(steps)-d.keepLast] {
		if err := os.Remove(d.fileFor(step)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("ckpt: retention: %w", err)
		}
	}
	return nil
}
