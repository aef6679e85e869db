package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Backend is the compute engine of the serving decoder: the two products a
// Stepper runs per token — MatMulABT on FP32 weights, MatMulABTStreamQ8 on
// int8 ones — and For, which spreads independent calls over the engine's
// workers (the batcher's per-sequence sampling, the trainer's ranks and
// elementwise stripes). Training passes call the package kernels directly.
// Every implementation is bit-identical to the serial reference — the
// repository's correctness contracts (resume, served vs sequential decode)
// are all stated in exact bits, so a backend that "only" changes low-order
// float bits would break them.
type Backend interface {
	// MatMulABT computes dst = a @ bᵀ (see the package function).
	MatMulABT(dst, a, b *Matrix)
	// MatMulABTStreamQ8 computes dst = a @ dequant(b)ᵀ against int8 weights
	// (the quantized serving hot path; see the package function).
	MatMulABTStreamQ8(dst, a *Matrix, b *QMatrix)
	// For calls fn(i) once for every i in [0, n), on the backend's workers
	// when it has several, and returns when all calls have. The calls must
	// be independent of one another and must not use the backend; a panic
	// in one is raised again on the caller.
	For(n int, fn func(i int))
	// Workers reports how many goroutines the backend computes on, the
	// caller's included: 1 for Serial.
	Workers() int
}

// Serial is the reference backend: the package-level kernels, one
// goroutine. Its zero value is ready to use.
type Serial struct{}

// MatMulABT implements Backend.
func (Serial) MatMulABT(dst, a, b *Matrix) { MatMulABT(dst, a, b) }

// MatMulABTStreamQ8 implements Backend.
func (Serial) MatMulABTStreamQ8(dst, a *Matrix, b *QMatrix) { MatMulABTStreamQ8(dst, a, b) }

// MatMul is the package function, kept as a method for benchmark/ladder.go.
func (Serial) MatMul(dst, a, b *Matrix) { MatMul(dst, a, b) }

// MatMulATBAcc is the package function, kept as a method for benchmark/ladder.go.
func (Serial) MatMulATBAcc(dst, a, b *Matrix) { MatMulATBAcc(dst, a, b) }

// MatMulABTStream is MatMulABT under the name benchmark/ladder.go calls.
func (Serial) MatMulABTStream(dst, a, b *Matrix) { MatMulABT(dst, a, b) }

// For implements Backend.
func (Serial) For(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// Workers implements Backend.
func (Serial) Workers() int { return 1 }

// New returns a backend tiling across n workers: Serial for n ≤ 1, a
// *Parallel otherwise.
func New(n int) Backend {
	if n <= 1 {
		return Serial{}
	}
	return NewParallel(n)
}

// parallelMinWork is the multiply-add count below which dispatching tiles
// costs more than it saves; smaller calls run serially on the caller. Only
// the decoder's products tile, and the cut keeps its tiniest ones (a few
// rows against small weights) on the zero-overhead kernel. The value has not
// been measured on the decode shapes.
const parallelMinWork = 1 << 15

// ElementwiseMinWork is parallelMinWork's counterpart for elementwise passes
// over many tensors at once — a ring all-reduce's chunks, an optimizer step:
// the element count per call below which a second worker costs more than it
// saves, so the pass stays on the caller. It was sized when every call woke
// a parked helper, which on a 2-vCPU KVM host starts about 65 µs after it
// is woken: two workers then first beat one on an Adam step or an FP16 ring
// at G = 4 between 64 Ki and 256 Ki elements. Only two workers were
// measured. A helper stays awake for awakeWindow after a call, so a pass
// that closely follows another pays less than that wake; the cutoff has not
// been re-measured since.
const ElementwiseMinWork = 1 << 17

// awakeWindow is how long a helper keeps polling for its next call after it
// acked one, yielding the processor between polls, before it parks on its
// channel. It is sized from the wake it saves and the gaps it must bridge:
// a parked helper starts about 65 µs after it is woken on a 2-vCPU KVM
// host, and in the batched decoder 99.8 % of the gaps between one call's
// end and the next call are under 80 µs, 16 % of them over 20 µs. So a
// helper stays awake through a decode loop or a training step's
// back-to-back calls, and an idle pool still parks within a tenth of a
// millisecond.
const awakeWindow = 100 * time.Microsecond

// Fanout returns how many workers of be an elementwise pass over n elements
// should be spread over: one per ElementwiseMinWork/2 elements, at least 1
// and at most be.Workers(), so no worker gets a stripe shorter than the
// measured break-even. Without a backend it is 1.
func Fanout(be Backend, n int) int {
	if be == nil {
		return 1
	}
	return min(be.Workers(), max(1, n/(ElementwiseMinWork/2)))
}

// Stripe returns the bounds of stripe i when n elements are cut into w
// contiguous stripes. Every bound but n is a multiple of 8, the vector
// kernels' width, so only the last stripe has a scalar tail, and every
// stripe is a pure function of (n, w, i).
func Stripe(n, w, i int) (lo, hi int) {
	lo, hi = (i*n/w)&^7, n
	if i < w-1 {
		hi = ((i + 1) * n / w) &^ 7
	}
	return lo, hi
}

// Parallel is a goroutine-tiled backend. Each kernel call partitions its
// output — rows when there are enough of them, columns otherwise (a batch-1
// activation against a V×D embedding tiles the vocabulary axis) — into one
// contiguous tile per worker with boundaries that are a pure function of the
// shape and worker count. Every tile writes a disjoint output range and
// computes each element with exactly the serial kernel's operation order,
// so results are bit-identical to Serial at every worker count: no atomic
// adds, no reduction trees, no scheduling dependence.
//
// The workers−1 helper goroutines are persistent (spawned once in
// NewParallel). After a call a helper stays awake for awakeWindow, polling
// for the next one and yielding the processor between polls, and only then
// parks on a channel, so back-to-back calls skip the wake of a parked
// goroutine. The dispatch path performs no allocation, preserving the
// zero-alloc guarantees of the serving hot loop. A Parallel may be shared —
// concurrent kernel calls serialize on an internal mutex, each call then
// using every worker — which is how a server's batchers share one compute
// device.
type Parallel struct {
	mu      sync.Mutex
	workers int
	job     *parallelJob
}

type kernelKind uint8

const (
	kkABT kernelKind = iota
	kkABTStreamQ8
	kkFor
)

// parallelJob is the state shared with the helper goroutines. The helpers
// hold only this struct (not the Parallel), so an unreachable backend can be
// collected and its cleanup can retire the helpers.
//
// Lifecycle discipline: helpers touch the job fields only between receiving
// a wake token and sending the matching ack, and the dispatching caller
// waits for every ack before returning. Helpers are therefore quiescent
// whenever a new dispatch writes the fields — no generation counters or
// atomic field publication needed, and the race detector agrees.
type parallelJob struct {
	wake chan struct{} // capacity workers-1; one token per helper per call
	ack  chan struct{} // capacity workers-1; one ack per token
	quit chan struct{}
	once sync.Once // guards close(quit): Close and the GC cleanup may both run

	tileWork
	byCols bool
	units  int // rows, columns or For indices being tiled
	tiles  int
	next   atomic.Int64        // tile claim counter
	failed atomic.Pointer[any] // first panic out of a tile, re-raised by dispatch
}

// tileWork is what one dispatch computes: a kernel and its operands.
type tileWork struct {
	kind      kernelKind
	dst, a, b *Matrix
	qb        *QMatrix    // b for kkABTStreamQ8
	fn        func(i int) // kkFor
}

// NewParallel returns a backend tiling across n workers (helper goroutines
// plus the calling goroutine). n is clamped to at least 1; more workers than
// GOMAXPROCS is allowed — results do not depend on n, only speed does.
// Helpers persist until Close or until the backend is garbage collected.
func NewParallel(n int) *Parallel { return newParallel(n, awakeWindow) }

// newParallel is NewParallel with the helpers' awake window as a parameter,
// so the tests can hold helpers awake past any scheduling delay.
func newParallel(n int, window time.Duration) *Parallel {
	if n < 1 {
		n = 1
	}
	p := &Parallel{
		workers: n,
		job: &parallelJob{
			wake: make(chan struct{}, n-1),
			ack:  make(chan struct{}, n-1),
			quit: make(chan struct{}),
		},
	}
	for i := 0; i < n-1; i++ {
		go p.job.run(window)
	}
	if n > 1 {
		// Helpers reference the job, not the Parallel, so an abandoned
		// backend becomes unreachable and the finalizer retires them.
		runtime.SetFinalizer(p, func(p *Parallel) { p.job.close() })
	}
	return p
}

// Close retires the helper goroutines. The backend must be idle; it is not
// usable afterwards. Close is optional — an unreachable Parallel releases
// its helpers via a GC cleanup — and idempotent.
func (p *Parallel) Close() { p.job.close() }

func (j *parallelJob) close() { j.once.Do(func() { close(j.quit) }) }

// run is the helper loop: wait for a token, claim and execute tiles until
// none remain, ack.
func (j *parallelJob) run(window time.Duration) {
	for j.await(window) {
		j.claim()
		j.ack <- struct{}{}
	}
}

// await waits for the helper's next token and reports false once the
// backend is closed. For window it polls both channels, calling
// runtime.Gosched between polls so that a goroutine waiting for the
// processor — with one P, the dispatching caller itself — runs first; then
// it parks.
func (j *parallelJob) await(window time.Duration) bool {
	for start := time.Now(); time.Since(start) < window; runtime.Gosched() {
		select {
		case <-j.wake:
			return true
		case <-j.quit:
			return false
		default:
		}
	}
	select {
	case <-j.wake:
		return true
	case <-j.quit:
		return false
	}
}

// claim executes tiles until the counter exhausts. The caller participates
// too, so a late-scheduled helper costs nothing but its own idle time. A
// panic in a tile ends the call's remaining tiles and is kept for dispatch,
// so a helper is never lost to one and the caller sees it.
func (j *parallelJob) claim() {
	defer func() {
		if r := recover(); r != nil {
			j.next.Store(int64(j.tiles))
			first := r // declared here so only a panic allocates
			j.failed.CompareAndSwap(nil, &first)
		}
	}()
	for {
		t := int(j.next.Add(1)) - 1
		if t >= j.tiles {
			return
		}
		j.runTile(t)
	}
}

// bound returns tile boundary t. Boundaries depend only on (units, tiles),
// never on scheduling — the determinism the bit-identity contract needs.
// FP32 a@bᵀ row tiles align to even starts so the two-row blocking keeps its
// pairing (values would be identical anyway; see matMulABTRange).
func (j *parallelJob) bound(t int) int {
	v := t * j.units / j.tiles
	if j.kind == kkABT && !j.byCols && t > 0 && t < j.tiles {
		v &^= 1
	}
	return v
}

// span is the matmul kernels' tile: [lo, hi) of the tiled axis of dst and all
// of the other axis.
func (j *parallelJob) span(lo, hi int) span {
	if j.byCols {
		return span{0, j.dst.Rows, lo, hi}
	}
	return span{lo, hi, 0, j.dst.Cols}
}

func (j *parallelJob) runTile(t int) {
	lo, hi := j.bound(t), j.bound(t+1)
	if lo >= hi {
		return
	}
	switch j.kind {
	case kkABT:
		matMulABTRange(j.dst, j.a, j.b, j.span(lo, hi))
	case kkABTStreamQ8:
		matMulABTQ8Range(j.dst, j.a, j.qb, j.span(lo, hi))
	case kkFor:
		j.fn(lo)
	}
}

// dispatch fans one call across the workers and returns when every tile has
// finished: one contiguous tile per worker of the larger output axis (so
// batch-1 shapes still spread), or one tile per index for kkFor, whose calls
// cost unevenly. Zero allocations: the job struct is reused, tokens ride
// preallocated buffered channels.
func (p *Parallel) dispatch(w tileWork, rows, cols int) {
	j := p.job
	p.mu.Lock()
	defer p.mu.Unlock()
	j.tileWork = w
	j.byCols, j.units = false, rows
	if cols > rows {
		j.byCols, j.units = true, cols
	}
	j.tiles = j.units
	if w.kind != kkFor {
		j.tiles = min(p.workers, j.units)
	}
	helpers := min(p.workers, j.tiles) - 1
	j.next.Store(0)
	for i := 0; i < helpers; i++ {
		j.wake <- struct{}{}
	}
	j.claim()
	for i := 0; i < helpers; i++ {
		<-j.ack
	}
	// The helpers touch the job no more until the next token; drop the
	// operands so a long-lived backend does not pin the last call's.
	j.tileWork = tileWork{}
	if r := j.failed.Swap(nil); r != nil {
		panic(*r)
	}
}

// serialCutoff reports whether the call is too small to tile: below the
// work threshold, or degenerate. The decision is a pure function of shape,
// so it cannot perturb determinism (and even when it differs across worker
// counts, both paths compute identical bits).
func (p *Parallel) serialCutoff(m, k, n int) bool {
	return p.workers == 1 || m*k*n < parallelMinWork || m == 0 || n == 0
}

// MatMulABT implements Backend.
func (p *Parallel) MatMulABT(dst, a, b *Matrix) {
	checkMatMulABT(dst, a, b)
	if p.serialCutoff(a.Rows, a.Cols, b.Rows) {
		matMulABTRange(dst, a, b, whole(dst))
		return
	}
	p.dispatch(tileWork{kind: kkABT, dst: dst, a: a, b: b}, a.Rows, b.Rows)
}

// MatMulABTStreamQ8 implements Backend. The cutoff judges the same
// fused-multiply-add count as the FP32 kernels — the int8 path does the same
// arithmetic, just against narrower loads.
func (p *Parallel) MatMulABTStreamQ8(dst, a *Matrix, b *QMatrix) {
	checkMatMulABTQ8(dst, a, b)
	if p.serialCutoff(a.Rows, a.Cols, b.Rows) {
		matMulABTQ8Range(dst, a, b, whole(dst))
		return
	}
	p.dispatch(tileWork{kind: kkABTStreamQ8, dst: dst, a: a, qb: b}, a.Rows, b.Rows)
}

// For implements Backend: the calls are claimed one index at a time by as
// many workers as there are indices to share.
func (p *Parallel) For(n int, fn func(i int)) {
	if p.workers == 1 || n <= 1 {
		Serial{}.For(n, fn)
		return
	}
	p.dispatch(tileWork{kind: kkFor, fn: fn}, n, 0)
}

// Workers implements Backend.
func (p *Parallel) Workers() int { return p.workers }
