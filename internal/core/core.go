// Package core implements the paper's primary contribution (§III): scalable
// synchronization of embedding-layer gradients across data-parallel ranks.
//
// Background (§II-B): dense RNN gradients are synchronized with an
// ALLREDUCE, but embedding gradients cannot be — row i of the local gradient
// matrix Δ corresponds to a *different word* on every rank, so
// state-of-the-art implementations ALLGATHER all G dense K×D gradient
// blocks and scatter-add them locally: Θ(G·K·D) memory and wire volume per
// GPU, which exhausts a 12 GB GPU beyond ~24 ranks and makes training
// communication-bound.
//
// The fix (§III-A) exploits Zipf's law. A global batch of G·K tokens
// contains only U_g ≪ G·K unique words (empirically U_g ∝ (GK)^0.64), so:
//
//  1. each rank locally reduces duplicate rows (Δ → Δ̂, U_i×D),
//  2. ranks ALLGATHER only the K word indices — Θ(G·K) integers,
//  3. every rank independently computes the same sorted unique index set Î,
//  4. local gradients scatter into a shared U_g×D layout M,
//  5. one ALLREDUCE over M — Θ(U_g·D) — yields the global update,
//  6. which applies without duplicate-row conflicts.
//
// Total: Θ(G·K + U_g·D) versus Θ(G·K·D). Both engines below expose
// identical semantics (the same Update), so the equivalence the paper claims
// — "uniqueness only changes the flow of computation" — is testable and
// tested.
//
// FP16 wire compression (§III-C) is a field on the exchange context and
// composes with either engine.
package core

import (
	"errors"
	"fmt"
	"sort"

	"zipflm/internal/cluster"
	"zipflm/internal/collective"
	"zipflm/internal/tensor"
)

// ErrPeerOOM is returned by an exchange when another rank ran out of
// memory: the whole collective aborts together so no rank blocks in a data
// collective its peers abandoned.
var ErrPeerOOM = errors.New("core: a peer rank ran out of memory during the exchange")

// SparseGrad is an embedding-layer gradient in the form backpropagation
// produces it (§II-A): one D-dimensional row per *token*, plus the word
// index each row maps back to. Multiple rows may carry the same index.
type SparseGrad struct {
	// Indices[i] is the vocabulary id of token i.
	Indices []int
	// Rows is the len(Indices) × D gradient matrix Δ.
	Rows *tensor.Matrix
}

// Validate checks internal consistency.
func (g SparseGrad) Validate() error {
	if g.Rows == nil {
		return fmt.Errorf("core: SparseGrad with nil rows")
	}
	if len(g.Indices) != g.Rows.Rows {
		return fmt.Errorf("core: %d indices but %d gradient rows", len(g.Indices), g.Rows.Rows)
	}
	return nil
}

// Update is the globally accumulated embedding update every rank must apply:
// one row per unique word, indices sorted ascending and identical on all
// ranks. Applying it is conflict-free — the "no serialization bottleneck"
// property of §III-A.
type Update struct {
	// Indices are the unique word ids (ascending).
	Indices []int
	// Rows is the len(Indices) × D globally summed gradient.
	Rows *tensor.Matrix
}

// Apply adds the update into the embedding matrix: emb.Row(Indices[i]) +=
// scale * Rows.Row(i).
func (u Update) Apply(emb *tensor.Matrix, scale float32) {
	for i, w := range u.Indices {
		tensor.Axpy(scale, emb.Row(w), u.Rows.Row(i))
	}
}

// Stats reports what one exchange cost on this rank.
type Stats struct {
	// Tokens is K, the local token count.
	Tokens int
	// UniqueLocal is U_i, unique words on this rank.
	UniqueLocal int
	// UniqueGlobal is U_g, unique words across all ranks this step.
	UniqueGlobal int
	// WireBytes is the per-rank communication volume of this exchange.
	WireBytes int64
	// ScratchBytes is the peak scratch memory the exchange allocated.
	ScratchBytes int64
	// SimSeconds is the simulated duration of the exchange on this rank's
	// virtual clock: the time the collectives (priced by the
	// communicator's CostModel) advanced it while the exchange ran. Zero
	// when no device/cost model is attached.
	SimSeconds float64
}

// Ctx carries the per-rank execution environment of an exchange.
type Ctx struct {
	// Rank is the rank this context belongs to.
	Rank int
	// Comm is the communicator shared by all ranks.
	Comm *collective.Comm
	// Dev, when non-nil, accounts scratch memory (and triggers OOM).
	Dev *cluster.Device
	// Wire, when non-nil, applies lossy wire compression to gradient
	// payloads — FP16 compression-scaling (§III-C, half.Scaler). Every
	// rank's context in one exchange holds the same Wire. Index payloads
	// always travel as int32.
	Wire collective.Wire
	// WS, when non-nil, supplies reusable per-rank scratch (maps, index
	// and row buffers) so steady-state exchanges stop churning the
	// allocator. A Workspace belongs to exactly one rank and must not be
	// shared.
	WS *Workspace
}

// Workspace is reusable per-rank scratch for the exchange engines: the
// duplicate-detection and row-mapping hash maps plus the locally reduced
// index/row buffers, all of which are rebuilt every step with
// near-identical sizes. Engines treat a nil *Workspace as "allocate
// fresh", so the scratch path is purely an optimization and cannot change
// results. Buffers handed out by a Workspace are only valid until the next
// request for the same buffer; nothing returned to the exchange's caller
// (Update indices/rows) ever aliases workspace memory.
type Workspace struct {
	posMap map[int]int
	rowMap map[int]int
	idx    []int
	// mats are the two matrices a rank's exchange keeps live at once: its
	// locally reduced rows and its U_g×D reduction buffer.
	mats [2][]float32
}

// NewWorkspace returns an empty workspace; buffers grow on first use and
// are reused afterwards.
func NewWorkspace() *Workspace {
	return &Workspace{posMap: make(map[int]int), rowMap: make(map[int]int)}
}

// scratchPosMap returns the cleared duplicate-detection map (fresh when the
// workspace is nil). Lifetime: until the next scratchPosMap call on the
// same workspace.
func (w *Workspace) scratchPosMap() map[int]int {
	if w == nil {
		return make(map[int]int)
	}
	clear(w.posMap)
	return w.posMap
}

// scratchRowMap is the row-mapping counterpart of scratchPosMap.
func (w *Workspace) scratchRowMap() map[int]int {
	if w == nil {
		return make(map[int]int)
	}
	clear(w.rowMap)
	return w.rowMap
}

// scratchInts returns an empty int slice with capacity ≥ n backed by the
// workspace (fresh when nil). Lifetime: until the next scratchInts call.
func (w *Workspace) scratchInts(n int) []int {
	if w == nil {
		return make([]int, 0, n)
	}
	if cap(w.idx) < n {
		w.idx = make([]int, 0, n)
	}
	return w.idx[:0]
}

// scratchMatrix returns a zeroed r×c matrix backed by the workspace's
// matrix i (fresh when nil). Lifetime: until the next scratchMatrix call for
// the same i.
func (w *Workspace) scratchMatrix(i, r, c int) *tensor.Matrix {
	if w == nil {
		return tensor.NewMatrix(r, c)
	}
	n := r * c
	if cap(w.mats[i]) < n {
		w.mats[i] = make([]float32, n)
	}
	s := w.mats[i][:n]
	clear(s)
	return tensor.NewMatrixFrom(r, c, s)
}

// Exchanger synchronizes one embedding-gradient step across ranks.
type Exchanger interface {
	// Name identifies the strategy in reports.
	Name() string
	// ExchangeRanks combines every rank's gradient — grads[r] is rank r's,
	// exchanged in ctxs[r], and every context shares one communicator and
	// one Wire (contexts that do not panic, naming the first rank that
	// differs, before anything is read or written) — into the global
	// Update, executed once for the whole group on the calling goroutine.
	// Everything that is per rank stays per rank: each rank's collectives
	// are counted, priced on its clock and traced on its track, each rank
	// allocates its scratch on its device, and each gets its own Stats and
	// error. An error on any rank is an error on every
	// rank (the rank that ran out of memory gets its device's error, the
	// others ErrPeerOOM), and the Update is then empty.
	ExchangeRanks(ctxs []*Ctx, grads []SparseGrad) (Update, []Stats, []error)
	// Exchange is the per-rank adapter of ExchangeRanks: every rank of
	// ctx.Comm calls it from its own goroutine with its context and
	// gradient, and every rank gets the same Update — one value, to be read,
	// not written — with its own Stats and error.
	Exchange(ctx *Ctx, grad SparseGrad) (Update, Stats, error)
}

// exchangeRank is every engine's Exchange, over the communicator's
// Rendezvous: each rank posts its context and gradient, and rank 0 runs
// ExchangeRanks for the group.
func exchangeRank(ex Exchanger, ctx *Ctx, grad SparseGrad) (Update, Stats, error) {
	type call struct {
		ctx  *Ctx
		grad SparseGrad
		upd  Update
		st   Stats
		err  error
	}
	mine := &call{ctx: ctx, grad: grad}
	ctx.Comm.Rendezvous(ctx.Rank, mine, func(posts []any) {
		ctxs := make([]*Ctx, len(posts))
		grads := make([]SparseGrad, len(posts))
		for r, p := range posts {
			ctxs[r], grads[r] = p.(*call).ctx, p.(*call).grad
		}
		upd, stats, errs := ex.ExchangeRanks(ctxs, grads)
		for r, p := range posts {
			c := p.(*call)
			c.upd, c.st, c.err = upd, stats[r], errs[r]
		}
	})
	return mine.upd, mine.st, mine.err
}

// batch is one ExchangeRanks call's bookkeeping: the group's communicator
// and wire, and per rank its Stats and error, its traffic and virtual clock
// when the call began, and the scratch bytes it holds on its device.
type batch struct {
	ctxs   []*Ctx
	comm   *collective.Comm
	wire   collective.Wire
	stats  []Stats
	errs   []error
	before []collective.Stats
	sim0   []float64
	held   []int64
}

// open starts an ExchangeRanks call. It panics unless there is one context
// and gradient per rank and every context holds rank 0's Wire. Before
// anything is allocated or sent it checks every rank's gradient and that
// all ranks agree on D; when they do not, every rank's error names the
// first rank at fault and ok is false.
func open(ctxs []*Ctx, grads []SparseGrad) (b *batch, ok bool) {
	g := len(ctxs)
	comm := ctxs[0].Comm
	if len(grads) != g || comm.Size() != g {
		panic(fmt.Sprintf("core: %d contexts and %d gradients for %d ranks", g, len(grads), comm.Size()))
	}
	for r, ctx := range ctxs {
		if ctx.Wire != ctxs[0].Wire {
			panic(fmt.Sprintf("core: rank %d exchanges on another wire (%v) than rank 0 (%v)", r, ctx.Wire, ctxs[0].Wire))
		}
	}
	b = &batch{
		ctxs:   ctxs,
		comm:   comm,
		wire:   ctxs[0].Wire,
		stats:  make([]Stats, g),
		errs:   make([]error, g),
		before: make([]collective.Stats, g),
		sim0:   make([]float64, g),
		held:   make([]int64, g),
	}
	if err := checkGrads(grads); err != nil {
		for r := range b.errs {
			b.errs[r] = err
		}
		return b, false
	}
	for r, ctx := range ctxs {
		b.stats[r].Tokens = len(grads[r].Indices)
		b.before[r] = comm.RankStats(r)
		if ctx.Dev != nil && ctx.Dev.Clock != nil {
			b.sim0[r] = ctx.Dev.Clock.Now()
		}
	}
	return b, true
}

// checkGrads validates every rank's gradient and their common width D.
func checkGrads(grads []SparseGrad) error {
	for r, g := range grads {
		if err := g.Validate(); err != nil {
			return fmt.Errorf("core: exchange aborted, rank %d: %w", r, err)
		}
		if d, d0 := g.Rows.Cols, grads[0].Rows.Cols; d != d0 {
			return fmt.Errorf("core: exchange aborted, rank %d: embedding dimension %d, rank 0's is %d", r, d, d0)
		}
	}
	return nil
}

// alloc charges bytes(r) of scratch to every rank's device, then runs the
// collective abort protocol: the ranks vote, and unless every rank
// allocated, every rank abandons the exchange — the rank that failed with
// its device's error, the others with ErrPeerOOM. It reports whether the
// exchange goes on.
func (b *batch) alloc(bytes func(rank int) int64) bool {
	ok := make([]bool, len(b.ctxs))
	for r, ctx := range b.ctxs {
		n := bytes(r)
		if ctx.Dev == nil || n == 0 {
			ok[r] = true
			continue
		}
		if err := ctx.Dev.Alloc(n); err != nil {
			b.errs[r] = err
			continue
		}
		b.held[r] += n
		ok[r] = true
	}
	if b.comm.AgreeRanks(ok) {
		return true
	}
	for r := range b.errs {
		if b.errs[r] == nil {
			b.errs[r] = ErrPeerOOM
		}
	}
	return false
}

// abort releases the batch's scratch and returns what a failed
// ExchangeRanks returns: no Update, zero Stats, every rank's error.
func (b *batch) abort() (Update, []Stats, []error) {
	b.release()
	return Update{}, make([]Stats, len(b.ctxs)), b.errs
}

// release frees every rank's scratch.
func (b *batch) release() {
	for r, ctx := range b.ctxs {
		if b.held[r] > 0 {
			ctx.Dev.Free(b.held[r])
			b.held[r] = 0
		}
	}
}

// finish fills in what each rank's exchange cost on the wire and on its
// clock, and releases the scratch.
func (b *batch) finish() {
	for r, ctx := range b.ctxs {
		b.stats[r].WireBytes = b.comm.RankStats(r).Sub(b.before[r]).Total()
		if ctx.Dev != nil && ctx.Dev.Clock != nil {
			b.stats[r].SimSeconds = ctx.Dev.Clock.Now() - b.sim0[r]
		}
	}
	b.release()
}

// localReduce performs steps 1–2 of §III-A: collapse duplicate-word rows of
// the token-level gradient into one row per locally unique word. The
// returned indices are sorted ascending; rows align with indices. With a
// non-nil workspace, the returned idx and rows are workspace scratch —
// valid until the engine's next localReduce — and must not escape into the
// returned Update.
func localReduce(ws *Workspace, grad SparseGrad) (idx []int, rows *tensor.Matrix) {
	d := grad.Rows.Cols
	pos := ws.scratchPosMap()
	idx = ws.scratchInts(len(grad.Indices))
	for _, w := range grad.Indices {
		if _, ok := pos[w]; !ok {
			pos[w] = 0
			idx = append(idx, w)
		}
	}
	sort.Ints(idx)
	for i, w := range idx {
		pos[w] = i
	}
	rows = ws.scratchMatrix(0, len(idx), d)
	for i, w := range grad.Indices {
		tensor.AddInPlace(rows.Row(pos[w]), grad.Rows.Row(i))
	}
	return idx, rows
}

// globalUnique performs step 4: merge all ranks' index vectors into the
// sorted duplicate-free Î. Every rank computes this independently from the
// same gathered input, so the result is consistent cluster-wide. The
// returned slice is always freshly allocated (it becomes Update.Indices and
// escapes to the caller); only the dedup map draws on the workspace.
func globalUnique(ws *Workspace, gathered [][]int) []int {
	seen := ws.scratchPosMap()
	for _, ranks := range gathered {
		for _, w := range ranks {
			seen[w] = 0
		}
	}
	out := make([]int, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}
