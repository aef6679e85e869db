// Package zipflm is a from-scratch Go reproduction of "Language Modeling at
// Scale" (Patwary, Chabbi, Jun, Huang, Diamos, Church — IPPS 2019,
// arXiv:1810.10045): scaling RNN language-model training across many GPUs by
// exploiting Zipf's law in the embedding-layer gradient exchange.
//
// The system lives in internal/ packages (README's "Package map"), is
// exercised by the runnable programs in cmd/ and the Example functions in
// internal/trainer and internal/serve, and regenerates every table and figure
// of the paper's evaluation through cmd/zipflm-bench and bench_test.go.
//
// # Communication substrate: G ranks simulated, each exchange executed once
//
// The simulated collectives (internal/collective) execute what decides
// bits and counters once and price the G ranks on one virtual clock, as
// trace-driven training simulators do — the step is bulk-synchronous, so
// every rank's charges are the same:
//
//   - Every collective is called once for the whole group, from one
//     goroutine, with every rank's buffers and one stateless wire for the
//     group. The ring all-reduce rounds each hop on the receiver as it
//     adds, as a ring rank would, counts each rank's bytes, and writes the
//     sum to rank 0 only — the weights every rank shares are updated from
//     it. Each chunk is its own pipeline, and the trainer's pool (one
//     worker per core) takes chunk sets, as it takes stripes of the Adam
//     step. Gathers account payloads the caller already holds. The
//     executor and the per-rank adapters built on Comm.Rendezvous
//     (collective's AllReduce, core's Exchange) are allocation-free at
//     steady state, guarded by testing.AllocsPerRun, and held bit for bit
//     to the goroutine ring they replaced at GOMAXPROCS 1, 2 and 8.
//
//   - The exchange engines (internal/core) work the same way:
//     Exchanger.ExchangeRanks runs each rank's local reduce, allocation
//     and vote per rank, computes the unique set Î once, and reduces the G
//     U_g×D matrices in one all-reduce.
//
//   - A communicator prices on the one cost model attached to it.
//     trainer.Config.Overlap reduces the dense gradients a layer per call
//     and attaches a second model around those calls, on a lane clock that
//     starts each layer when the backward pass finished it: the same
//     reductions as the synchronous mode, priced as a
//     timeline of their own (critical path, not sum). Weights and wire
//     bytes are bit-identical between the modes, on either wire and with
//     or without the virtual clock.
//
// The "overlap" experiment (zipflm-bench -exp overlap) prints what overlap
// buys per step on the paper's hardware, and the BenchmarkStep* benchmarks
// in bench_test.go time the step on this one.
//
// # Serving layer: dynamic batching, admission control, Zipf caching
//
// internal/serve turns the trained models into a production-shaped
// inference service (cmd/zipflm-serve): per-worker replicas run a
// continuous dynamic batcher over model.Stepper — a zero-allocation
// batched generation path whose rows are computed independently, so every
// response is bit-identical to sequential model.Generate for the same
// request seed regardless of batch composition. Prefill is cells-only: a
// step advances every sequence's cell but computes the projection and the
// V×D logits row only for the sequences that sample a token in it, so a
// request costs one logits row per generated token however long its prompt
// is (sequential generation warms its prompt the same way). A bounded
// admission queue sheds under overload instead of accumulating goroutines,
// deadlines are enforced at service start, and two LRU caches exploit the
// Zipf shape of request popularity: a result cache for exact repeats and a
// prefix cache snapshotting post-prompt recurrent states. TestClosedLoopLoad
// drives it with the closed-loop Zipf load generator (serve.RunLoad) and
// fits the issued load with internal/powerlaw, the BenchmarkServe*
// benchmarks compare batched and sequential throughput, and the repository
// benchmark's serve_zipf_open workload measures it end to end.
//
// # Quantized decode: int8 kernels
//
// Int8 weights cut the serving hot path's per-token cost without loosening
// any determinism contract. LM.Quantize builds a serving replica
// whose output embedding and recurrent weights are stored as per-chunk
// scaled int8 (tensor.QMatrix: scale = maxAbs/127 per chunk, codes rounded
// to nearest on a symmetric grid); one kernel, MatMulABTStreamQ8, takes every batch size
// and dequantizes in-register, on amd64 with AVX2 through assembly that
// converts each code once for up to four activation rows (a batch's two or
// three leftover rows take one grouped pass, a single row its own routine)
// and whose accumulation order is exactly the portable definition's (which
// older amd64 and other architectures run). With AVX-512 a ZMM tier holds a
// row's sixteen partials in one register instead of two. Quantized results
// are bit-identical across Serial, Parallel, worker counts, both tiers and
// the asm/Go boundary. After each
// batched step the serving batcher samples the sequences side by side on
// the same worker pool (tensor.Backend.For); every sequence owns its RNG,
// so that changes no token either. Int8 serving surfaces on zipflm-serve
// and zipflm-generate as -quantized, and TestServedTokensLedger holds the
// served tokens of FP32 and int8 weights to checked-in digests.
//
// # Fault tolerance: checkpoints, deterministic resume, failure injection
//
// internal/ckpt makes the training and serving stacks crash-safe the way
// the paper's tens-of-hours epochs demand. A checkpoint captures the
// complete training state — model weights, optimizer moments, global step
// and LR-schedule position, per-rank RNG streams, carried RNN state — in
// CRC-framed, atomically written files under a retention-managed store.
// Inside both the model file and the checkpoint frame (version 4 of each)
// only names, shapes and scalars are gob; the weights and Adam's moments
// travel as slabs of little-endian float32 in the order the model declares
// its dense tensors, streamed through the running CRC into the file, so a
// checkpoint costs about one copy of what it writes. Files of earlier
// versions are refused. The frame is the only weights file: zipflm-train
// -save writes one with ckpt.WriteFile, and zipflm-serve and
// zipflm-generate read a file or a directory's newest through ckpt.Open.
// trainer.Resume
// restores it so exactly that checkpoint-then-resume is bit-identical to
// never having stopped: replicas, wire-byte counters, and validation loss
// all match an uninterrupted run across every optimizer × exchange ×
// precision × overlap combination (the resume tests enforce this).
// On the virtual clock, a seeded ckpt.FaultPlan kills ranks at simulated
// times; the trainer rolls back to its last checkpoint, replays, and the
// "faults" experiment (zipflm-bench -exp faults) sweeps checkpoint
// interval against failure rate to trace goodput, with the measured
// optimum landing on the Young/Daly √(2δM) prediction. On the serving
// side, serve.Server.Reload swaps worker replicas between batch steps
// with zero dropped requests — in-flight sequences finish on the weights
// that admitted them, caches are generation-tagged — and zipflm-serve
// wires it to POST /v1/reload, a checkpoint-directory watcher (-watch),
// and graceful SIGINT/SIGTERM drain.
//
// # Multicore backend: goroutine-tiled kernels, bit-identical at any width
//
// internal/tensor puts the serving decoder's two products — MatMulABT on
// FP32 weights, MatMulABTStreamQ8 on int8 ones — behind a Backend: Serial
// (the reference kernels) and Parallel, which tiles each product's output
// across a persistent goroutine pool. Tile boundaries are a pure function of
// shape and worker count, and each tile writes a disjoint output range in
// the serial kernel's exact operation order, so results are bit-identical
// to Serial at every worker count — which is what lets a pool accelerate
// serving without perturbing any of the repository's exact-bits contracts.
// Dispatch is allocation-free and small products fall back to the serial
// kernel. The backend's For lends the same pool to independent calls: the
// batcher's per-sequence sampling, the trainer's per-rank passes and its
// synchronization's stripes. A helper stays awake for a short window after
// each call, yielding the processor while it polls, so back-to-back calls —
// a decode step's products, a training step's phases — skip the wake of a
// parked goroutine. The trainer runs its ranks' forward/backward passes and
// its synchronization's bulk work on one such pool, so a step starts no
// goroutine; each pass calls the package kernels directly. Those products
// are large: internal/model runs a whole T×B sequence per call on
// time-major slabs from a reusable per-replica workspace, so the input
// products, the weight-gradient products, the bias sums and dx run once per
// sequence over T·B rows, and only the recurrence (h·Whᵀ, the gates and
// their transposes) runs once per timestep. The weight-gradient slabs are
// kept steps-descending — the order backpropagation through time visited
// them — so one accumulate call adds the same rows in the same order as one
// call per timestep did, and what crosses a layer boundary stays
// steps-ascending, the order the projection, the loss and the embedding
// exchange accumulate in: no bit moves (the per-timestep passes live on in
// internal/model/oracle_test.go as the definition). Each process makes
// one backend decision: the trainer's pool has one worker per core, a
// server's backend comes from zipflm-serve -compute-workers /
// serve.Config.ComputeWorkers (0 and 1 are Serial), and every other model
// — model.NewLM, model.Unmarshal behind ckpt.State.LM — is built on Serial. Speedup requires
// GOMAXPROCS > 1; on a single-core host the tiled counts measure dispatch
// overhead.
//
// Underneath both backends the FP32 inner loops (axpy behind MatMul and
// MatMulATBAcc, Dot behind MatMulABT) run AVX assembly
// on amd64, chosen from CPUID with no knob, and the portable Go loops
// elsewhere. The Go loops define the arithmetic — which products, added in
// which order, each multiply and add rounded separately, never fused — and
// the assembly reproduces it bit for bit (TestFP32AsmMatchesGo), so the
// kernels change wall-clock only: axpy goes eight lanes wide, the Dot
// family keeps its four-partial order and blocks over outputs instead. On
// a host with AVX-512 (cpu.AVX512) a ZMM tier, gated by useFP32AVX512,
// takes axpy runs sixteen lanes wide and Dot four a rows per pass, with
// the same bits as the AVX kernels.
//
// The dense-gradient path after backward follows the same rule. The FP16
// wire (half.Scaler.RoundTrip) is defined by the portable FromFloat32 and
// ToFloat32 and runs as an F16C kernel — scale, clamp to ±65504, convert
// round-to-nearest-even, convert back, unscale, NaN canonicalised — that
// TestRoundTripAsmMatchesGo holds to the definition on every half and
// every rounding boundary. The ring's per-hop reduction and SGD are
// tensor.AddInPlace and tensor.Axpy. Adam keeps its moments at the
// parameters' precision: the step is defined by a portable float32 loop —
// every operation rounded on its own, the bias corrections as reciprocals
// computed once per step, one divide and one square root per element, a
// moment below the smallest normal float32 stored as +0 so that a
// zero-gradient parameter can never park one in the denormals — with an
// eight-lane AVX twin (TestAdamAsmMatchesGo) and the float64 loop it
// replaced kept in the tests as the oracle (TestAdamTracksFloat64Oracle).
// The trainer runs the optimizer once per step, for every rank: the ranks
// share one set of weights (model.LM.Replica) and one optimizer, and the
// update reads rank 0's reduced gradients only after every rank's exchange
// succeeded. Each dense tensor is declared once, as a view of one value
// slab the replicas share and one gradient slab per replica, so the 1/G
// scale is one call over rank 0's slab (model.LM.DenseGrads). The virtual
// clock still charges the update every simulated device models, once for
// all of them.
// internal/cpu is the single CPUID probe behind all of these gates.
//
// The activations are the one place where the arithmetic is this
// repository's own rather than the platform's. exp, tanh and the logistic
// sigmoid are defined in internal/tensor (trans.go) as float32 functions —
// Cody–Waite range reduction, a fixed polynomial, every product rounded
// before it is added, no libm and no FMA — with error bounds against
// float64 checked over all 2³² inputs (exp within 1 ulp, tanh 1.5, sigmoid
// 2.5 and monotone) and defined results at ±Inf, NaN, overflow and
// underflow. An AVX2 kernel per function repeats the definition eight lanes
// at a time (TestTransAsmMatchesGo). Each recurrent cell is one fused gate
// function making vector passes over the contiguous pre-activation row,
// shared by training and serving, and every softmax — full, sampled, the
// decoder's — exponentiates each logit once and sums in a fixed lane-striped
// order, so activations are the same bits at every worker count, batch size
// and architecture. README "Numerics" has the details.
//
// # Gradient compression: the FP16 wire
//
// The paper's one gradient compression is FP16 with compression-scaling
// (§III-C), and half.Scaler is the one collective.Wire. A Wire is stateless
// and element-pure, so a ring hop's receiver rounds the chunk as it adds it
// and the ring runs chunk-major on the worker pool, bit for bit what a
// sender-side ring makes; the per-rank adapters refuse ranks that post
// different wires.
//
// # Observability: unified telemetry, Prometheus, virtual-clock tracing
//
// internal/telemetry gives every subsystem one metrics and tracing layer
// built for nanosecond hot paths: atomic counters and gauges, lock-free
// log-scale histograms (32 sub-buckets per octave, ≤1.6% relative quantile
// error) with p50/p99, all zero-allocation on record and no-ops when
// nil — telemetry off costs one branch. A Registry exports Prometheus text
// exposition (labeled families like
// zipflm_serve_batch_steps_total{batch="4"}), its one format, which
// telemetry.ParseText reads back; telemetry.Tracer records bounded
// span/instant timelines as Chrome trace_event JSON whose simulated-cluster
// spans carry the virtual clock next to wall time — summing a trace's
// per-phase virtual durations reproduces the trainer's
// SimComputeSeconds/SimSyncSeconds bitwise. The instrumented paths
// (trainer step phases and fault counters, the whole serving snapshot —
// /v1/stats reads from the registry) observe without perturbing: the bit-identity suites rerun with telemetry on and assert
// identical weights, losses and tokens. Every metric family has a reader
// (a zipflm-top panel, a CI assertion, a serve.Snapshot field or a failure
// count), which TestMetricFamiliesHaveReaders holds. Surfaces:
// zipflm-serve GET /metrics, the -metrics-addr observer listener of
// zipflm-serve and zipflm-train (/metrics, net/http/pprof), -trace on all
// three commands.
//
// Two analysis layers sit on top. Traces carry each step's phases, a
// span per collective operation and phase 1's per-rank compute, and
// internal/traceview computes the per-step critical path on the virtual
// clock — compute, sync, wire and update seconds — with totals that
// reconcile bitwise against the trainer's accounting through the JSON
// file; cmd/zipflm-trace is the CLI (summary, top spans, -diff with a
// nonzero exit on regression). telemetry.Flight is an always-on lock-free
// ring of pre-rendered log/slog records — the last N anomalies — dumped on
// trainer fault rollback, serve overload shed, or SIGQUIT. Both inherit the
// layer's contract: the bit-identity suites run with tracing and flight
// recording enabled. Service-level objectives are not evaluated in process:
// a scraper computes them, burn rates included, from the cumulative latency
// buckets and outcome counters /metrics exports. A reload
// the serving layer could not install — unreadable source, unparseable
// checkpoint, mismatched architecture — is counted
// (zipflm_serve_reload_failures_total) and recorded in the ring with its
// cause. Every command attaches its observers in one place:
// telemetry.Options.RegisterFlags declares each observer flag once, and
// telemetry.Start runs the registry, tracer, flight recorder and listener
// behind one idempotent Stop.
//
// # The export rule
//
// Nothing under internal/ is exported without a reader: an exported name
// must be referenced by non-test code of some package in either module, or
// by the tests of a different package. TestExportsHaveReaders
// (exports_test.go) checks it with go list -export and go/types; README
// "The export rule" has the details.
package zipflm
