// Package zipflm is a from-scratch Go reproduction of "Language Modeling at
// Scale" (Patwary, Chabbi, Jun, Huang, Diamos, Church — IPPS 2019,
// arXiv:1810.10045): scaling RNN language-model training across many GPUs by
// exploiting Zipf's law in the embedding-layer gradient exchange.
//
// The system lives in internal/ packages (see DESIGN.md for the inventory),
// is exercised by the runnable programs in cmd/ and examples/, and
// regenerates every table and figure of the paper's evaluation through
// cmd/zipflm-bench and the benchmarks in bench_test.go.
//
// # Communication substrate: zero-copy rings, pooled buffers, overlap
//
// The simulated collectives (internal/collective) are engineered like the
// production stacks the paper measures against:
//
//   - The ring all-reduce is zero-copy and allocation-free at steady state:
//     each hop is one message — the sender's list of tensors, whose
//     chunks the receiver reads in place — and a closing barrier keeps a
//     rank from rewriting its buffers while a peer's hop still reads them. Blackboard buffers for
//     gathers come from a communicator-wide sync.Pool arena and are
//     recycled across steps. testing.AllocsPerRun guards both
//     paths against regression.
//
//   - A communicator has two lanes — two complete sets of ring channels,
//     barrier, blackboards, counters and optional cost model. Comm.Side
//     is the same communicator on its second lane, so every collective
//     (fused ring all-reduce, compressed all-reduce, gathers) can run
//     there concurrently with the primary lane, already priced, traced and
//     counted. Comm.AllReduceParts reduces a list of tensors in one ring
//     pass — 2·(G−1) messages however long the list — chunking each member
//     with exactly the single-tensor bounds, so reduced values and Stats
//     byte accounting are bit-identical to per-tensor AllReduce calls —
//     asserted by the tests.
//
//   - trainer.Config.Overlap is those two put together: the trainer has
//     one dense-gradient function, and in overlap mode a per-rank worker
//     calls it on the side lane — a backward hook hands over a dense layer
//     the moment it finishes backpropagating, and the sparse §III-A
//     exchange then runs on the primary lane with the dense rings still in
//     flight. Replicas stay bit-identical to the synchronous mode, and
//     because it is the same function, overlap composes with gradient
//     compression and with the virtual clock (which prices the side lane
//     as its own timeline: critical path, not sum).
//     The exchange engines themselves reuse per-rank core.Workspace
//     scratch (dedup maps, locally-reduced rows) across steps.
//
// The "overlap" experiment (zipflm-bench -exp overlap) and the
// BenchmarkStep* benchmarks in bench_test.go measure what this buys per
// training step.
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
// prefix cache snapshotting post-prompt recurrent states. The "serving" experiment
// (zipflm-bench -exp serving) drives it with a closed-loop Zipf load
// generator and fits the issued load with internal/powerlaw; the
// BenchmarkServe* benchmarks in internal/serve compare batched and
// sequential throughput.
//
// # Quantized & speculative decode: int8 kernels, draft-verified lookahead
//
// Two optimizations attack the serving hot path's per-token cost without
// loosening any determinism contract. LM.Quantize builds a serving replica
// whose output embedding and recurrent weights are stored as per-chunk
// scaled int8 (tensor.QMatrix, the same round-to-nearest grid as
// compress.Quant8); one kernel, MatMulABTStreamQ8, takes every batch size
// and dequantizes in-register, on amd64 with AVX2 through assembly that
// converts each code once for four activation rows and whose accumulation
// order is exactly the portable definition's (which older amd64 and other
// architectures run), so quantized results are bit-identical across
// Serial, Parallel, worker counts, and the asm/Go boundary. After each
// batched step the serving batcher samples the sequences side by side on
// the same worker pool (tensor.Backend.For); every sequence owns its RNG,
// so that changes no token either. Speculative decoding (model.SpecDecoder,
// serve.Config.Draft) has a small same-vocabulary draft propose k greedy
// lookahead tokens which the target verifies in one batched Stepper step,
// rolling back at the first mismatch; every emitted token is sampled from
// the target's own logits at its true prefix, so output is bit-identical
// to sequential model.Generate at every temperature — the draft only
// changes the cost per token. Both surface on zipflm-serve and
// zipflm-generate (-quantized, -draft, -draft-k), /v1/stats reports the
// acceptance rate, /v1/reload swaps target and draft atomically, and the
// serving experiment's second table measures tok/s and acceptance for a
// trained target/draft pairing.
//
// # Fault tolerance: checkpoints, deterministic resume, failure injection
//
// internal/ckpt makes the training and serving stacks crash-safe the way
// the paper's tens-of-hours epochs demand. A checkpoint captures the
// complete training state — model weights (deterministic name-sorted
// encoding), optimizer moments, global step and LR-schedule position,
// per-rank RNG streams, carried RNN state — in CRC-framed, atomically
// written files under a retention-managed store. Inside both the model
// file and the checkpoint frame (version 3 of each) only names, shapes and
// scalars are gob; every tensor travels as little-endian float32 bytes,
// streamed through the running CRC into the file, so a checkpoint costs
// about one copy of what it writes; older all-gob files still load, their
// float64 Adam moments rounded to float32 (trainer.Resume logs a warning
// when that happens). trainer.Resume
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
// internal/tensor hides every matmul the models compute behind a pluggable
// Backend: Serial (the reference kernels) and Parallel, which tiles each
// kernel's output across a persistent goroutine pool. Tile boundaries are
// a pure function of shape and worker count, each tile writes a disjoint
// output range in the serial kernel's exact operation order, and no
// reduction ever crosses a tile (the transposed-accumulate kernel
// partitions output rows, not the reduction axis), so results are
// bit-identical to Serial at every worker count — which is what lets one
// knob accelerate training, validation, and serving without perturbing any
// of the repository's exact-bits contracts. Dispatch is allocation-free
// and small products fall back to the serial kernel. Training hands it
// products worth tiling: internal/model runs a whole T×B sequence per call
// on time-major slabs from a reusable per-replica workspace, so the input
// products, the weight-gradient products, the bias sums and dx run once per
// sequence over T·B rows, and only the recurrence (h·Whᵀ, the gates and
// their transposes) runs once per timestep. The weight-gradient slabs are
// kept steps-descending — the order backpropagation through time visited
// them — so one accumulate call adds the same rows in the same order as one
// call per timestep did, and what crosses a layer boundary stays
// steps-ascending, the order the projection, the loss and the embedding
// exchange accumulate in: no bit moves (the per-timestep passes live on in
// internal/model/oracle_test.go as the definition). The knob surfaces as
// zipflm-train -workers / trainer.Config.Workers (rank replicas share one
// backend), zipflm-serve -compute-workers / serve.Config.ComputeWorkers,
// zipflm-bench -workers, and the ZIPFLM_WORKERS environment variable,
// which CI uses to run the whole suite through the tiled backend. Speedup
// requires GOMAXPROCS > 1; on a single-core host the tiled counts measure
// dispatch overhead (the BenchmarkStepWorkers* names carry the GOMAXPROCS
// suffix, so artifacts record which case they measured).
//
// Underneath both backends the FP32 inner loops (axpy behind MatMul and
// MatMulATBAcc, Dot behind MatMulABT and MatMulABTStream) run AVX assembly
// on amd64, chosen from CPUID with no knob, and the portable Go loops
// elsewhere. The Go loops define the arithmetic — which products, added in
// which order, each multiply and add rounded separately, never fused — and
// the assembly reproduces it bit for bit (TestFP32AsmMatchesGo), so the
// kernels change wall-clock only: axpy goes eight lanes wide, the Dot
// family keeps its four-partial order and blocks over outputs instead.
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
// The trainer applies each rank's optimizer on that rank's goroutine,
// still only after every rank's exchange succeeded.
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
// # Gradient compression: top-k error feedback, 8-bit quantization
//
// internal/compress multiplies the wire savings of §III-A and §III-C on
// the dense gradient side. The collective layer's wire precision is now an
// interface (collective.Wire) rather than the FP16 scaler alone, so
// compress.Quant8 — 8-bit quantization with per-chunk scales and
// deterministic stochastic rounding — rides the zero-copy ring all-reduce
// exactly where FP16 does, at 4× under FP32 for any cluster size. Top-k
// sparsification with momentum-corrected error feedback travels a new
// compressed all-reduce (collective.AllReduceCompressed): per-rank opaque
// payloads all-gather and every rank decode-sums them in rank order, which
// keeps replicas bit-identical while Stats records the real compressed
// bytes and the virtual clock prices them. A Zipf-aware policy leaves
// small tensors uncompressed and tunes embedding-class ratios from the
// corpus's own type–token law (powerlaw.FitRankFrequency); per-rank
// residual state rides in the checkpoints so compressed runs resume
// bit-identically. The "compress" experiment (zipflm-bench -exp compress)
// measures bytes and loss deltas on a real run and reprices the
// weak-scaling step model with compressed payloads.
//
// # Observability: unified telemetry, Prometheus, virtual-clock tracing
//
// internal/telemetry gives every subsystem one metrics and tracing layer
// built for nanosecond hot paths: atomic counters and gauges, lock-free
// log-scale histograms (32 sub-buckets per octave, ≤1.6% relative quantile
// error) with p50/p99/p999, all zero-allocation on record and no-ops when
// nil — telemetry off costs one branch. A Registry exports Prometheus text
// exposition (labeled families like
// zipflm_collective_bytes_total{op="allreduce",wire="fp16"}) and JSON
// snapshots; telemetry.Tracer records bounded span/instant timelines as
// Chrome trace_event JSON whose simulated-cluster spans carry the virtual
// clock next to wall time — summing a trace's per-phase virtual durations
// reproduces the trainer's SimComputeSeconds/SimSyncSeconds bitwise. The
// instrumented paths (collective.Comm per-op/per-wire traffic, trainer
// step phases and fault counters, ckpt.Dir save/load, the whole serving
// snapshot — /v1/stats reads from the registry) observe without
// perturbing: the bit-identity suites rerun with telemetry on and assert
// identical weights, losses and tokens. Surfaces: zipflm-serve GET
// /metrics and -debug-addr (net/http/pprof), zipflm-train -metrics-addr
// and -trace, zipflm-bench -trace, and examples/observability.
//
// Three analysis layers sit on top. Traces carry per-rank and
// per-collective spans, and internal/traceview computes the per-step
// critical path on the virtual clock — straggler rank, wire vs sync-wait
// seconds, per-rank utilization — with totals that reconcile bitwise
// against the trainer's accounting through the JSON file; cmd/zipflm-trace
// is the CLI (summary, top spans, -diff with a nonzero exit on
// regression). telemetry.SLO evaluates declared objectives (p99 latency,
// availability) straight off the registry's histograms and counters with
// multi-window error-budget burn rates, published as zipflm_slo_* gauges
// and on the serving /v1/stats snapshot. telemetry.Flight is an always-on
// lock-free ring of pre-rendered log/slog records — the last N anomalies
// — dumped on trainer fault rollback, serve overload shed, or SIGQUIT.
// All three inherit the layer's contract: the bit-identity suites run
// with tracing, SLOs and flight recording enabled simultaneously. A reload
// the serving layer could not install — unreadable source, unparseable
// checkpoint, mismatched architecture — is counted
// (zipflm_serve_reload_failures_total) and recorded in the ring with its
// cause. Each command starts and stops an observer through one helper
// (Tracer.WriteFile, telemetry.StartFlight, telemetry.StartProfiler,
// dash.Start); telemetry.History samples the registry into a ring and dumps
// it as JSON, leaving rates and windows to the reader of the dump.
//
// # The export rule
//
// Nothing under internal/ is exported without a reader: an exported name
// must be referenced by non-test code of some package in either module, or
// by the tests of a different package. TestExportsHaveReaders
// (exports_test.go) checks it with go list -export and go/types; README
// "The export rule" has the details.
package zipflm
