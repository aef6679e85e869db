package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"zipflm/internal/cluster"
	"zipflm/internal/collective"
	"zipflm/internal/half"
	"zipflm/internal/perfmodel"
	"zipflm/internal/rng"
	"zipflm/internal/tensor"
)

// This file keeps the exchange engines as they were written before
// ExchangeRanks: each rank's goroutine runs its own exchange and meets its
// peers in per-rank collectives. They are the references ExchangeRanks and
// the Exchange adapter are held to.

// gatherIntsRank is the per-rank index all-gather the references call:
// every rank posts its indices, the batched gather accounts them, and every
// rank receives its own copies of all of them, in rank order.
func gatherIntsRank(c *collective.Comm, rank int, local []int) [][]int {
	type post struct {
		in  []int
		out [][]int
	}
	mine := &post{in: local}
	c.Rendezvous(rank, mine, func(posts []any) {
		all := make([][]int, len(posts))
		for r, p := range posts {
			all[r] = p.(*post).in
		}
		c.AllGatherIntsRanks(all)
		for _, p := range posts {
			for _, in := range all {
				p.(*post).out = append(p.(*post).out, slices.Clone(in))
			}
		}
	})
	return mine.out
}

// gatherFloatsRank is gatherIntsRank for a rank's gradient block, which
// crosses the group's wire once, as a copy.
func gatherFloatsRank(c *collective.Comm, rank int, local []float32, wire collective.Wire) [][]float32 {
	type post struct {
		in  []float32
		out [][]float32
	}
	mine := &post{in: slices.Clone(local)}
	c.Rendezvous(rank, mine, func(posts []any) {
		all := make([][]float32, len(posts))
		for r, p := range posts {
			all[r] = p.(*post).in
		}
		c.AllGatherFloatsRanks(all, wire)
		for _, p := range posts {
			for _, in := range all {
				p.(*post).out = append(p.(*post).out, slices.Clone(in))
			}
		}
	})
	return mine.out
}

// refSimNow returns the rank's virtual time (0 without a device clock).
func refSimNow(ctx *Ctx) float64 {
	if ctx.Dev == nil || ctx.Dev.Clock == nil {
		return 0
	}
	return ctx.Dev.Clock.Now()
}

// refAlloc charges the device (if any) and returns a release func.
func refAlloc(dev *cluster.Device, n int64) (func(), error) {
	if dev == nil || n == 0 {
		return func() {}, nil
	}
	if err := dev.Alloc(n); err != nil {
		return nil, err
	}
	return func() { dev.Free(n) }, nil
}

// refAgree runs the abort protocol around one rank's allocation outcome: the
// ranks' votes meet in one AgreeRanks, and every rank learns its answer.
func refAgree(ctx *Ctx, localErr error, release func()) error {
	type vote struct{ ok, all bool }
	mine := &vote{ok: localErr == nil}
	ctx.Comm.Rendezvous(ctx.Rank, mine, func(posts []any) {
		votes := make([]bool, len(posts))
		for r, p := range posts {
			votes[r] = p.(*vote).ok
		}
		all := ctx.Comm.AgreeRanks(votes)
		for _, p := range posts {
			p.(*vote).all = all
		}
	})
	if mine.all {
		return nil
	}
	if localErr != nil {
		return localErr
	}
	release()
	return ErrPeerOOM
}

// refUnique is one rank's UniqueExchange, the seven steps of §III-A.
func refUnique(ctx *Ctx, grad SparseGrad) (Update, Stats, error) {
	if err := grad.Validate(); err != nil {
		return Update{}, Stats{}, err
	}
	g, k, d := ctx.Comm.Size(), len(grad.Indices), grad.Rows.Cols
	stats := Stats{Tokens: k}
	before := ctx.Comm.RankStats(ctx.Rank)
	simBefore := refSimNow(ctx)

	localIdx, localRows := localReduce(ctx.WS, grad)
	stats.UniqueLocal = len(localIdx)
	preBytes := int64(len(localIdx))*int64(d)*4 + int64(g)*int64(k)*4
	relPre, allocErr := refAlloc(ctx.Dev, preBytes)
	if err := refAgree(ctx, allocErr, relPre); err != nil {
		return Update{}, Stats{}, err
	}
	defer relPre()

	gathered := gatherIntsRank(ctx.Comm, ctx.Rank, grad.Indices)
	globalIdx := globalUnique(ctx.WS, gathered)
	ug := len(globalIdx)
	stats.UniqueGlobal = ug
	rowOf := ctx.WS.scratchRowMap()
	for i, w := range globalIdx {
		rowOf[w] = i
	}

	relM, allocErr := refAlloc(ctx.Dev, int64(ug)*int64(d)*4)
	if err := refAgree(ctx, allocErr, relM); err != nil {
		return Update{}, Stats{}, err
	}
	defer relM()
	m := tensor.NewMatrix(ug, d)
	for i, w := range localIdx {
		copy(m.Row(rowOf[w]), localRows.Row(i))
	}
	ctx.Comm.AllReduce(ctx.Rank, m.Data, ctx.Wire)

	stats.WireBytes = ctx.Comm.RankStats(ctx.Rank).Sub(before).Total()
	stats.SimSeconds = refSimNow(ctx) - simBefore
	stats.ScratchBytes = preBytes + int64(ug)*int64(d)*4
	return Update{Indices: globalIdx, Rows: m}, stats, nil
}

// refBaseline is one rank's BaselineAllGather (§II-B).
func refBaseline(ctx *Ctx, grad SparseGrad) (Update, Stats, error) {
	if err := grad.Validate(); err != nil {
		return Update{}, Stats{}, err
	}
	g, k, d := ctx.Comm.Size(), len(grad.Indices), grad.Rows.Cols
	stats := Stats{Tokens: k}
	before := ctx.Comm.RankStats(ctx.Rank)
	simBefore := refSimNow(ctx)

	scratch := int64(g)*int64(k)*int64(d)*4 + int64(g)*int64(k)*4
	release, allocErr := refAlloc(ctx.Dev, scratch)
	if err := refAgree(ctx, allocErr, release); err != nil {
		return Update{}, Stats{}, err
	}
	defer release()
	stats.ScratchBytes = scratch

	allIdx := gatherIntsRank(ctx.Comm, ctx.Rank, grad.Indices)
	allRows := gatherFloatsRank(ctx.Comm, ctx.Rank, grad.Rows.Data, ctx.Wire)
	order := globalUnique(ctx.WS, allIdx)
	pos := ctx.WS.scratchRowMap()
	for i, w := range order {
		pos[w] = i
	}
	acc := tensor.NewMatrix(len(order), d)
	for r, idxs := range allIdx {
		block := tensor.NewMatrixFrom(len(idxs), d, allRows[r])
		for i, w := range idxs {
			tensor.AddInPlace(acc.Row(pos[w]), block.Row(i))
		}
	}
	seen := ctx.WS.scratchPosMap()
	for _, w := range grad.Indices {
		seen[w] = 0
	}
	stats.UniqueLocal = len(seen)
	stats.UniqueGlobal = len(order)
	stats.WireBytes = ctx.Comm.RankStats(ctx.Rank).Sub(before).Total()
	stats.SimSeconds = refSimNow(ctx) - simBefore
	return Update{Indices: order, Rows: acc}, stats, nil
}

// refLink prices the references' and the engines' collectives alike.
var refLink = perfmodel.LinkCost{Alpha: 1e-5, BytesPerSec: 1e9}

// outcome is everything one exchange of the whole group leaves behind.
type outcome struct {
	Indices    []int
	Rows       []float32
	Stats      []Stats
	Errs       []string
	Live, Peak []int64
	Clocks     []float64
	Traffic    []collective.Stats
}

// exchangeVia runs one exchange of grads with fresh everything: a
// communicator priced on the devices' clocks (started apart), devices of
// the given capacities (0: unlimited), the group's wire and per-rank
// workspaces. run executes the exchange and returns rank 0's Update and
// every rank's Stats and error.
func exchangeVia(t *testing.T, grads []SparseGrad, caps []int64, wire collective.Wire,
	run func(ctxs []*Ctx) (Update, []Stats, []error)) outcome {
	t.Helper()
	g := len(grads)
	comm := collective.New(g)
	clu := cluster.New(g, 0)
	ctxs := make([]*Ctx, g)
	for r, dev := range clu.Devices {
		dev.Capacity = caps[r]
		dev.Clock.Advance(float64((3*r)%g) * 1e-4)
		ctxs[r] = &Ctx{Rank: r, Comm: comm, Dev: dev, Wire: wire, WS: NewWorkspace()}
	}
	comm.AttachCost(&collective.CostModel{Link: refLink, Clocks: clu.Clocks()})
	done := make(chan struct{})
	var upd Update
	var stats []Stats
	var errs []error
	go func() {
		defer close(done)
		upd, stats, errs = run(ctxs)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("exchange did not return")
	}
	o := outcome{Indices: upd.Indices, Stats: stats}
	if upd.Rows != nil {
		o.Rows = upd.Rows.Data
	}
	for r, dev := range clu.Devices {
		msg := ""
		if errs[r] != nil {
			msg = errs[r].Error()
		}
		o.Errs = append(o.Errs, msg)
		o.Live = append(o.Live, dev.Live())
		o.Peak = append(o.Peak, dev.Peak())
		o.Clocks = append(o.Clocks, dev.Clock.Now())
		o.Traffic = append(o.Traffic, comm.RankStats(r))
	}
	return o
}

// perRank runs exchange on one goroutine per rank, and requires every
// rank's Update to hold rank 0's bits.
func perRank(t *testing.T, exchange func(*Ctx, SparseGrad) (Update, Stats, error), grads []SparseGrad) func([]*Ctx) (Update, []Stats, []error) {
	return func(ctxs []*Ctx) (Update, []Stats, []error) {
		g := len(ctxs)
		upds := make([]Update, g)
		stats := make([]Stats, g)
		errs := make([]error, g)
		var wg sync.WaitGroup
		for r := range ctxs {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				upds[rank], stats[rank], errs[rank] = exchange(ctxs[rank], grads[rank])
			}(r)
		}
		wg.Wait()
		for r := 1; r < g; r++ {
			same := slices.Equal(upds[r].Indices, upds[0].Indices) &&
				(upds[r].Rows == nil) == (upds[0].Rows == nil) &&
				(upds[0].Rows == nil || slices.Equal(upds[r].Rows.Data, upds[0].Rows.Data))
			if !same {
				t.Errorf("rank %d's Update differs from rank 0's", r)
			}
		}
		return upds[0], stats, errs
	}
}

// raggedGrads builds one Zipf gradient per rank, rank r with 20+7r tokens.
func raggedGrads(g, d, vocab int, seed uint64) []SparseGrad {
	grads := make([]SparseGrad, g)
	root := rng.New(seed)
	for r := range grads {
		rr := root.Fork()
		z := rng.NewZipf(rr, vocab, 1.1)
		idx := make([]int, 20+7*r)
		for i := range idx {
			idx[i] = z.Next()
		}
		rows := tensor.NewMatrix(len(idx), d)
		rows.RandomizeNormal(rr, 1)
		grads[r] = SparseGrad{Indices: idx, Rows: rows}
	}
	return grads
}

// cloneGrads deep-copies grads, so no run can see another's writes.
func cloneGrads(grads []SparseGrad) []SparseGrad {
	out := make([]SparseGrad, len(grads))
	for r, g := range grads {
		out[r] = SparseGrad{Indices: slices.Clone(g.Indices), Rows: tensor.NewMatrixFrom(g.Rows.Rows, g.Rows.Cols, slices.Clone(g.Rows.Data))}
	}
	return out
}

var refWires = []struct {
	name string
	wire collective.Wire
}{
	{"fp32", nil},
	{"fp16", half.NewScaler(512)},
	// Every value crosses as an FP16 subnormal.
	{"fp16-underflow", half.NewScaler(1.0 / (1 << 16))},
	// A third of the gradient values, N(0, 1), overflow once scaled and
	// cross clamped.
	{"fp16-saturating", half.NewScaler(1 << 16)},
}

var refEngines = []struct {
	ex  Exchanger
	ref func(*Ctx, SparseGrad) (Update, Stats, error)
}{
	{UniqueExchange{}, refUnique},
	{BaselineAllGather{}, refBaseline},
}

// compareToReference runs grads through the reference, ExchangeRanks and
// the Exchange adapter on devices of capacities caps, and requires all
// three to leave the same outcome.
func compareToReference(t *testing.T, ex Exchanger, ref func(*Ctx, SparseGrad) (Update, Stats, error),
	grads []SparseGrad, caps []int64, wire collective.Wire) outcome {
	t.Helper()
	want := exchangeVia(t, cloneGrads(grads), caps, wire, perRank(t, ref, grads))
	batched := exchangeVia(t, cloneGrads(grads), caps, wire, func(ctxs []*Ctx) (Update, []Stats, []error) {
		return ex.ExchangeRanks(ctxs, cloneGrads(grads))
	})
	adapter := exchangeVia(t, cloneGrads(grads), caps, wire, perRank(t, ex.Exchange, cloneGrads(grads)))
	for name, got := range map[string]outcome{"ExchangeRanks": batched, "Exchange adapter": adapter} {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s differs from the reference:\n got  %+v\n want %+v", name, summary(got), summary(want))
		}
	}
	return want
}

// summary is an outcome without its update's values, for failure messages.
func summary(o outcome) string {
	return fmt.Sprintf("%d indices, %d values; stats %+v; errs %q; live %v peak %v; clocks %v; traffic %+v",
		len(o.Indices), len(o.Rows), o.Stats, o.Errs, o.Live, o.Peak, o.Clocks, o.Traffic)
}

// TestExchangeRanksMatchesReference holds ExchangeRanks and the Exchange
// adapter of both engines to the per-rank references, on ragged token
// counts, for G ∈ {1, 2, 3, 4, 8} and every wire: the update's bits, every
// rank's Stats, device Live and Peak, virtual clock and traffic counters.
func TestExchangeRanksMatchesReference(t *testing.T) {
	for _, e := range refEngines {
		for _, g := range []int{1, 2, 3, 4, 8} {
			for _, w := range refWires {
				t.Run(fmt.Sprintf("%s/g=%d/%s", e.ex.Name(), g, w.name), func(t *testing.T) {
					grads := raggedGrads(g, 6, 64, uint64(10*g+len(w.name)))
					o := compareToReference(t, e.ex, e.ref, grads, make([]int64, g), w.wire)
					for r, msg := range o.Errs {
						if msg != "" {
							t.Fatalf("rank %d: %s", r, msg)
						}
					}
					if len(o.Indices) == 0 || o.Peak[0] == 0 {
						t.Fatalf("empty exchange: %s", summary(o))
					}
				})
			}
		}
	}
}

// TestExchangeRanksAsymmetricOOM: when one rank's device runs out at an
// allocation point — the unique engine has two, before the index gather and
// before the U_g×D reduction; the baseline one — that rank gets its
// device's error, every other rank ErrPeerOOM, every byte is released, and
// the clocks, peaks and counters are the references'.
func TestExchangeRanksAsymmetricOOM(t *testing.T) {
	const d, vocab = 6, 64
	for _, g := range []int{2, 3, 4} {
		grads := raggedGrads(g, d, vocab, uint64(g))
		bad := g - 1
		k := int64(len(grads[bad].Indices))
		seen := map[int]bool{}
		for _, w := range grads[bad].Indices {
			seen[w] = true
		}
		global := map[int]bool{}
		for _, gr := range grads {
			for _, w := range gr.Indices {
				global[w] = true
			}
		}
		pre := int64(len(seen))*d*4 + int64(g)*k*4
		points := []struct {
			name     string
			ex       Exchanger
			ref      func(*Ctx, SparseGrad) (Update, Stats, error)
			capacity int64
		}{
			{"unique-before-gather", UniqueExchange{}, refUnique, pre - 1},
			{"unique-before-reduction", UniqueExchange{}, refUnique, pre + int64(len(global))*d*4 - 1},
			{"baseline", BaselineAllGather{}, refBaseline, int64(g)*k*d*4 + int64(g)*k*4 - 1},
		}
		for _, p := range points {
			t.Run(fmt.Sprintf("g=%d/%s", g, p.name), func(t *testing.T) {
				caps := make([]int64, g)
				caps[bad] = p.capacity
				o := compareToReference(t, p.ex, p.ref, grads, caps, refWires[1].wire)
				for r, msg := range o.Errs {
					want := ErrPeerOOM.Error()
					if r == bad {
						want = "cluster: device"
					}
					if len(msg) < len(want) || msg[:len(want)] != want {
						t.Errorf("rank %d error %q, want %q…", r, msg, want)
					}
					if o.Live[r] != 0 {
						t.Errorf("rank %d holds %d bytes after the abort", r, o.Live[r])
					}
				}
			})
		}
	}
}

// TestMalformedGradientFailsEveryRank: a gradient whose index count and row
// count disagree on one rank, or whose width differs from rank 0's, fails
// the exchange on every rank before anything is allocated or sent — through
// ExchangeRanks, and through the adapter, where the rank at fault used to
// return alone and leave its peers waiting for it in the allocation vote.
func TestMalformedGradientFailsEveryRank(t *testing.T) {
	const g = 3
	grads := func(bad SparseGrad) []SparseGrad {
		out := make([]SparseGrad, g)
		for r := range out {
			out[r] = SparseGrad{Indices: []int{r, r + 1, r + 2}, Rows: tensor.NewMatrix(3, 4)}
		}
		out[1] = bad
		return out
	}
	cases := map[string][]SparseGrad{
		"rows-and-indices-disagree": grads(SparseGrad{Indices: []int{1, 2}, Rows: tensor.NewMatrix(3, 4)}),
		"width-differs":             grads(SparseGrad{Indices: []int{1, 2, 3}, Rows: tensor.NewMatrix(3, 5)}),
	}
	for name, gs := range cases {
		for _, e := range refEngines {
			t.Run(name+"/"+e.ex.Name(), func(t *testing.T) {
				batched := exchangeVia(t, gs, make([]int64, g), refWires[0].wire, func(ctxs []*Ctx) (Update, []Stats, []error) {
					return e.ex.ExchangeRanks(ctxs, gs)
				})
				adapter := exchangeVia(t, gs, make([]int64, g), refWires[0].wire, perRank(t, e.ex.Exchange, gs))
				for _, o := range []outcome{batched, adapter} {
					for r, msg := range o.Errs {
						if msg == "" {
							t.Fatalf("rank %d: no error", r)
						}
						if o.Peak[r] != 0 || o.Traffic[r] != (collective.Stats{}) {
							t.Fatalf("rank %d allocated %d bytes or sent %+v before failing", r, o.Peak[r], o.Traffic[r])
						}
					}
				}
				if !reflect.DeepEqual(batched, adapter) {
					t.Fatalf("adapter %s, ExchangeRanks %s", summary(adapter), summary(batched))
				}
			})
		}
	}
}

// TestMixedWiresPanicEveryRank: contexts that do not share rank 0's wire —
// here rank 2's is a second FP16 scaler of the same factor — make
// ExchangeRanks panic, naming the rank, and the Exchange adapter panic on
// every rank, before any gradient is read or any byte is counted.
func TestMixedWiresPanicEveryRank(t *testing.T) {
	const g = 3
	const msg = "core: rank 2 exchanges on another wire (&{512}) than rank 0 (&{512})"
	grads := raggedGrads(g, 4, 32, 5)
	for _, e := range refEngines {
		t.Run(e.ex.Name(), func(t *testing.T) {
			comm := collective.New(g)
			wire := half.NewScaler(512)
			ctxs := make([]*Ctx, g)
			for r := range ctxs {
				ctxs[r] = &Ctx{Rank: r, Comm: comm, Wire: wire}
			}
			ctxs[2].Wire = half.NewScaler(512)
			func() {
				defer func() {
					if got := recover(); got != msg {
						t.Errorf("ExchangeRanks panic %v, want %q", got, msg)
					}
				}()
				e.ex.ExchangeRanks(ctxs, grads)
			}()
			got := make([]any, g)
			var wg sync.WaitGroup
			for r := range ctxs {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					defer func() { got[rank] = recover() }()
					e.ex.Exchange(ctxs[rank], grads[rank])
				}(r)
			}
			wg.Wait()
			for r, v := range got {
				if v != msg {
					t.Errorf("rank %d: Exchange panic %v, want %q", r, v, msg)
				}
				if comm.RankStats(r) != (collective.Stats{}) {
					t.Errorf("rank %d: a refused exchange was counted: %+v", r, comm.RankStats(r))
				}
			}
		})
	}
}

// TestExchangeRanksErrPeerOOMIsTheSentinel: peers of an out-of-memory rank
// get ErrPeerOOM itself, so errors.Is works on it.
func TestExchangeRanksErrPeerOOMIsTheSentinel(t *testing.T) {
	grads := raggedGrads(2, 4, 32, 3)
	clu := cluster.New(2, 0)
	clu.Devices[0].Capacity = 1
	comm := collective.New(2)
	ctxs := []*Ctx{{Rank: 0, Comm: comm, Dev: clu.Devices[0]}, {Rank: 1, Comm: comm, Dev: clu.Devices[1]}}
	_, _, errs := UniqueExchange{}.ExchangeRanks(ctxs, grads)
	var oom *cluster.ErrOutOfMemory
	if !errors.As(errs[0], &oom) || !errors.Is(errs[1], ErrPeerOOM) {
		t.Fatalf("errors %v, want rank 0 out of memory and rank 1 ErrPeerOOM", errs)
	}
}
