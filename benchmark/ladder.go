package main

import (
	"runtime"
	"sync"
	"time"

	"zipflm/internal/cluster"
	"zipflm/internal/collective"
	"zipflm/internal/core"
	"zipflm/internal/half"
	"zipflm/internal/model"
	"zipflm/internal/optim"
	"zipflm/internal/rng"
	"zipflm/internal/sampling"
	"zipflm/internal/tensor"
)

// The ladder times direct calls into one layer's public functions at the
// workload's own shapes and on its own data, after the run. It is the
// per-layer half of the traced run that spans cannot give: a span says where
// a step's time went, a rung says how fast the layer underneath is.

// ladderEnv is what a workload hands the ladder.
type ladderEnv struct {
	cfg       model.Config // the workload's model
	quantized bool         // decode rungs run on the int8 replica
	batch     int          // sequences per rank in one forward/backward
	seqLen    int
	stream    []int // the workload's tokens; batches are cut from it
	ranks     int
	wire      collective.Wire
	adam      bool
	rung      time.Duration // time budget of one rung
	seed      uint64
}

// timeRung runs fn in five timed groups sized to fill budget and returns the
// median nanoseconds per call and the number of groups.
func timeRung(budget time.Duration, fn func()) (float64, int) {
	const groups = 5
	fn() // first call pays lazy allocation
	t0 := time.Now()
	fn()
	one := time.Since(t0)
	per := int(budget / groups / (one + 1))
	if per < 1 {
		per = 1
	}
	ns := make([]float64, groups)
	for g := range ns {
		t0 = time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		ns[g] = float64(time.Since(t0)) / float64(per)
	}
	return median(ns), groups
}

// gflops converts a FLOP count and nanoseconds per call to GFLOP/s.
func gflops(flop, ns float64) float64 { return flop / ns }

func randMatrix(r *rng.RNG, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	m.RandomizeNormal(r, 0.1)
	return m
}

// batchAt cuts the (T×B) inputs and next-token targets of one rank's batch
// out of the stream, the way the trainer feeds a stateless model.
func batchAt(stream []int, rank, batch, seqLen int) (inputs, targets [][]int) {
	inputs = make([][]int, seqLen)
	targets = make([][]int, seqLen)
	for t := range inputs {
		inputs[t] = make([]int, batch)
		targets[t] = make([]int, batch)
		for b := 0; b < batch; b++ {
			off := ((rank*batch+b)*seqLen + t) % (len(stream) - 1)
			inputs[t][b] = stream[off]
			targets[t][b] = stream[off+1]
		}
	}
	return inputs, targets
}

func cloneGrad(g core.SparseGrad) core.SparseGrad {
	return core.SparseGrad{Indices: append([]int(nil), g.Indices...), Rows: g.Rows.Clone()}
}

// runLadder measures every ladder rung into out.
func runLadder(env ladderEnv, out values) error {
	r := rng.New(env.seed)
	be := tensor.Serial{}
	cfg := env.cfg
	B, H, D, V := env.batch, cfg.Hidden, cfg.Dim, cfg.Vocab
	gates := 4 * H // LSTM: four gates per recurrent product
	if cfg.RNN == model.KindRHN {
		gates = H // RHN: one H×H product per gate and micro-layer
	}

	// tensor: the three FP32 kernels at the recurrent-gate shape.
	{
		flop := 2 * float64(B) * float64(gates) * float64(H)
		dz, w, h := randMatrix(r, B, gates), randMatrix(r, gates, H), randMatrix(r, B, H)
		dh, z, gw := tensor.NewMatrix(B, H), tensor.NewMatrix(B, gates), tensor.NewMatrix(gates, H)
		ns, n := timeRung(env.rung, func() { be.MatMul(dh, dz, w) })
		out.set("tensor.matmul_gflops", gflops(flop, ns), n)
		ns, n = timeRung(env.rung, func() { be.MatMulATBAcc(gw, dz, h) })
		out.set("tensor.matmul_atb_acc_gflops", gflops(flop, ns), n)
		ns, n = timeRung(env.rung, func() { be.MatMulABT(z, h, w) })
		out.set("tensor.matmul_abt_gflops", gflops(flop, ns), n)
	}
	// tensor: the batched logits product (8 rows against the V×D output
	// embedding), FP32 and int8, and the tiled backend against the serial one.
	{
		const rows = 8
		flop := 2 * float64(rows) * float64(D) * float64(V)
		a, emb, logits := randMatrix(r, rows, D), randMatrix(r, V, D), tensor.NewMatrix(rows, V)
		q := tensor.QuantizeMatrix(emb, 0)
		ns, n := timeRung(env.rung, func() { be.MatMulABTStream(logits, a, emb) })
		out.set("tensor.abt_stream_gflops", gflops(flop, ns), n)
		serial, n := timeRung(env.rung, func() { be.MatMulABTStreamQ8(logits, a, q) })
		out.set("tensor.abt_stream_q8_gflops", gflops(flop, serial), n)
		par := tensor.NewParallel(runtime.GOMAXPROCS(0))
		tiled, n := timeRung(env.rung, func() { par.MatMulABTStreamQ8(logits, a, q) })
		par.Close()
		out.set("tensor.parallel_speedup_q8", serial/tiled, n)
	}

	// One model does every rank's forward/backward in turn: the exchange
	// rungs need G ranks' gradients, not G replicas.
	m := model.NewLM(cfg)
	m.SetBackend(be)
	var sampler sampling.CandidateSampler
	if cfg.Sampled > 0 {
		sampler = sampling.NewSampler(V, env.seed)
	}
	inGrads := make([]core.SparseGrad, env.ranks)
	outGrads := make([]core.SparseGrad, env.ranks)
	for rank := range inGrads {
		in, tg := batchAt(env.stream, rank, B, env.seqLen)
		m.ZeroGrads()
		res := m.ForwardBackward(in, tg, sampler)
		inGrads[rank] = cloneGrad(res.InputGrad)
		outGrads[rank] = cloneGrad(res.OutputGrad)
	}
	in0, tg0 := batchAt(env.stream, 0, B, env.seqLen)
	ns, n := timeRung(2*env.rung, func() {
		m.ZeroGrads()
		m.ForwardBackward(in0, tg0, sampler)
	})
	out.set("model.fwdbwd_ms", ns/1e6, n)

	// tensor: the embedding scatter-add on rank 0's real token rows.
	{
		emb := tensor.NewMatrix(V, D)
		g := inGrads[0]
		ns, n := timeRung(env.rung, func() { tensor.ScatterAddRows(emb, g.Rows, g.Indices) })
		out.set("tensor.scatter_add_ns_per_row", ns/float64(len(g.Indices)), n)
	}

	// model: one decode step at batch 1 and batch 8, on the weights the
	// workload decodes with.
	{
		dm := m
		if env.quantized {
			dm = m.Quantize()
		}
		const maxB = 8
		st := dm.NewStepper(maxB)
		states := make([]*model.GenState, maxB)
		ids := make([]int, maxB)
		for i := range states {
			states[i] = dm.NewGenState()
			ids[i] = env.stream[i%len(env.stream)]
		}
		ns, n := timeRung(env.rung, func() { st.Step(ids[:1], states[:1]) })
		out.set("model.decode_step_b1_ms", ns/1e6, n)
		ns, n = timeRung(env.rung, func() { st.Step(ids, states) })
		out.set("model.decode_step_b8_ms", ns/1e6, n)
	}

	// sampling: one step's candidate draw, and one token's decode draw.
	{
		samples := cfg.Sampled
		if samples == 0 {
			samples = 128
		}
		targets := inGrads[0].Indices
		seed := env.seed
		ns, n := timeRung(env.rung, func() {
			seed++
			sampling.NewSampler(V, seed).Sample(samples, targets)
		})
		out.set("sampling.candidates_us", ns/1e3, n)
		logits := randMatrix(r, 1, V).Row(0)
		dec := sampling.NewDecoder(V)
		opts := sampling.DecodeOpts{Temperature: 0.8}
		dr := rng.New(env.seed)
		ns, n = timeRung(env.rung, func() { dec.Sample(logits, opts, dr) })
		out.set("sampling.decode_us_per_tok", ns/1e3, n)
	}

	// half: FP16 compression-scaling round trip.
	{
		x := randMatrix(r, 1, 1<<16).Row(0)
		sc := half.NewScaler(256)
		ns, n := timeRung(env.rung, func() { sc.RoundTrip(x) })
		out.set("half.roundtrip_ns_per_elem", ns/float64(len(x)), n)
	}

	// collective: a ring all-reduce over a buffer the size of the dense
	// parameters, G rank goroutines, the workload's wire.
	{
		dense := model.NumParams(m.DenseLayers()...)
		bufs := make([][]float32, env.ranks)
		for i := range bufs {
			bufs[i] = make([]float32, dense)
		}
		comm := collective.New(env.ranks)
		ns, n := timeRung(env.rung, func() {
			var wg sync.WaitGroup
			for rank := range bufs {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					comm.AllReduce(rank, bufs[rank], env.wire)
				}(rank)
			}
			wg.Wait()
		})
		out.set("collective.allreduce_dense_ms", ns/1e6, n)
	}

	// core: both exchange engines on the G ranks' real gradients.
	{
		clu := cluster.New(env.ranks, 0)
		comm := collective.New(env.ranks)
		ws := make([]*core.Workspace, env.ranks)
		for i := range ws {
			ws[i] = core.NewWorkspace()
		}
		type exch struct {
			upd     core.Update
			in, out core.Stats
		}
		exchange := func(x core.Exchanger) (exch, error) {
			res := make([]exch, env.ranks)
			err := clu.Run(func(rank int, dev *cluster.Device) error {
				ctx := &core.Ctx{Rank: rank, Comm: comm, Dev: dev, Wire: env.wire, WS: ws[rank]}
				var err error
				res[rank].upd, res[rank].in, err = x.Exchange(ctx, inGrads[rank])
				if err != nil || cfg.Sampled == 0 {
					return err
				}
				_, res[rank].out, err = x.Exchange(ctx, outGrads[rank])
				return err
			})
			return res[0], err
		}
		var uniq, base exch
		var err error
		if uniq, err = exchange(core.UniqueExchange{}); err != nil {
			return err
		}
		if base, err = exchange(core.BaselineAllGather{}); err != nil {
			return err
		}
		ns, n := timeRung(env.rung, func() { _, _ = exchange(core.UniqueExchange{}) })
		out.set("core.exchange_unique_ms", ns/1e6, n)
		ns, n = timeRung(env.rung, func() { _, _ = exchange(core.BaselineAllGather{}) })
		out.set("core.exchange_baseline_ms", ns/1e6, n)
		emb := tensor.NewMatrix(V, D)
		ns, n = timeRung(env.rung, func() { uniq.upd.Apply(emb, -0.01) })
		out.set("core.update_apply_us", ns/1e3, n)

		gk := env.ranks * len(inGrads[0].Indices)
		out.set("core.in_unique", float64(uniq.in.UniqueGlobal), 1)
		out.set("core.out_unique", float64(uniq.out.UniqueGlobal), 1)
		out.set("core.dedup_ratio_in", float64(gk)/float64(uniq.in.UniqueGlobal), 1)
		out.set("core.wire_bytes_unique", float64(uniq.in.WireBytes+uniq.out.WireBytes), 1)
		out.set("core.wire_bytes_baseline", float64(base.in.WireBytes+base.out.WireBytes), 1)
		out.set("core.scratch_bytes_unique", float64(max(uniq.in.ScratchBytes, uniq.out.ScratchBytes)), 1)
		out.set("core.scratch_bytes_baseline", float64(max(base.in.ScratchBytes, base.out.ScratchBytes)), 1)
	}

	// optim: the dense update of all G ranks, one after the other, as the
	// trainer applies it.
	{
		opts := make([]optim.Optimizer, env.ranks)
		for i := range opts {
			if env.adam {
				opts[i] = optim.NewAdam(1e-5)
			} else {
				opts[i] = optim.SGD{}
			}
		}
		params := m.DenseParams()
		ns, n := timeRung(env.rung, func() {
			for _, o := range opts {
				o.Step(params, 0.01)
			}
		})
		out.set("optim.step_ms", ns/1e6, n)
	}
	return nil
}
