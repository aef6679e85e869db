package experiments

import (
	"slices"

	"zipflm/internal/core"
	"zipflm/internal/corpus"
	"zipflm/internal/perfmodel"
	"zipflm/internal/rng"
	"zipflm/internal/sampling"
)

// This file holds the paper-scale workload descriptions (§IV-B) and the
// calibration constants anchoring the perfmodel to the paper's own
// measurements. Everything G-dependent — unique-word counts, wire volumes,
// scratch memory — is *measured* by drawing real token/candidate streams
// and running them through the same unique-merge code the exchange engines
// use; only the translation of volumes into seconds uses the calibrated
// hardware model.

// wordWorkload is the §IV-B word LM: LSTM 2048 cells, projection/embedding
// D = 512, batch 32 × sequence 20 = 640 tokens per GPU, vocabulary 100K,
// sampled softmax with 1024 samples per GPU.
type scalingWorkload struct {
	Name string
	// K is tokens per rank per step.
	K int
	// D is the embedding dimension.
	D int
	// Vocab is |V|.
	Vocab int
	// Samples is sampled-softmax draws per rank (0 = full softmax).
	Samples int
	// ZipfExponent drives the synthetic token stream.
	ZipfExponent float64
	// DenseParams is the ALLREDUCE'd dense parameter count.
	DenseParams int64
	// FLOPsPerStep is per-GPU compute per iteration (§V-A: 136 GFLOP
	// word; §V-B: 2,721 GFLOP char).
	FLOPsPerStep float64
	// AchievedFrac is the measured fraction of peak (0.40 / 0.64).
	AchievedFrac float64
	// TokensPerEpoch is the dataset size in tokens.
	TokensPerEpoch int64
	// Calibration constants (each workload constructor names the paper
	// points it fits them to): OverheadBase + OverheadLin·G + OverheadQuad·G² is the per-step
	// framework cost anchored to the paper's "with our technique" epoch
	// hours.
	OverheadBase float64
	OverheadLin  float64
	OverheadQuad float64
	// IntraBW/InterBW are the effective collective bandwidths for this
	// workload's tensor-size mix (the word LM's many small tensors
	// sustain far less than the char LM's GB-sized buffers).
	IntraBW, InterBW float64
	// UpdateBWIntra/UpdateBWInter are the effective bandwidths of the
	// baseline's locked scatter-add update path (CPU/PCIe-staged for the
	// 100K-word embedding — and slower again once gathered gradients
	// arrive over InfiniBand; device memory for the small char
	// embedding).
	UpdateBWIntra, UpdateBWInter float64
	// DupSerialization: whether duplicate-row contention multiplies the
	// baseline update time (§II-B row locking; word LM only — the char
	// LM's tiny vocabulary saturates and the GPU coalesces instead).
	DupSerialization bool
	// BaseMemory is per-GPU model+activation+framework memory excluding
	// exchange scratch, and BaselineStaging the TF-1.4 gradient staging
	// replication factor, both calibrated to §V-A's measured GB points.
	BaseMemory      int64
	BaselineStaging float64
	BaseMemoryOurs  int64
}

// wordLM returns the Table III workload.
func wordLM() scalingWorkload {
	return scalingWorkload{
		Name:    "word-LM (1B dataset)",
		K:       32 * 20,
		D:       512,
		Vocab:   100_000,
		Samples: 1024,
		// s = 1.2 makes the synthetic batch-scale unique ratios match the
		// paper's own law (U ≈ 7.02·N^0.64 → U(10240) ≈ 2583, a 3.4–4×
		// token/type ratio at 16 GPUs, §V-A). Real text obeys both this
		// and Figure 1's large-N exponent simultaneously thanks to
		// burstiness; an i.i.d. generator needs the per-regime value.
		ZipfExponent: 1.2,
		// LSTM(512→2048): 4·2048·(512+2048) + biases ≈ 21.0 M;
		// projection 2048·512 ≈ 1.0 M.
		DenseParams:    22_000_000,
		FLOPsPerStep:   136e9,
		AchievedFrac:   0.40,
		TokensPerEpoch: 768_000_000, // 0.78 B words, ≈1% held out
		// Calibrated to Table III "with our technique": 14.6 h @ 8 GPUs,
		// 4.5 h @ 64 GPUs.
		OverheadBase: 0.2754,
		OverheadQuad: 0.0001186,
		// Small-tensor collective mix sustains well below link rate.
		IntraBW: 8e9,
		InterBW: 3e9,
		// CPU-hosted 100K×512 embedding: locked scatter-add over PCIe
		// within a node, over IB + host staging across nodes.
		UpdateBWIntra:    480e6,
		UpdateBWInter:    260e6,
		DupSerialization: true,
		// Calibrated to §V-A memory: baseline 3.9/7.1/10.3 GB at
		// 8/16/24 GPUs (OOM beyond 24); ours 1.19/1.20/1.21 GB.
		BaseMemory:      700 << 20,
		BaselineStaging: 128,
		BaseMemoryOurs:  1_180_000_000,
	}
}

// charLM returns the Table IV workload: RHN depth 10 × 1792 cells, batch
// 128 × sequence 150 = 19,200 chars per GPU, 98-char vocabulary, full
// softmax, 213 M parameters.
func charLM() scalingWorkload {
	return scalingWorkload{
		Name:           "char-LM (1B dataset)",
		K:              128 * 150,
		D:              1792,
		Vocab:          98,
		Samples:        0,
		ZipfExponent:   1.0,
		DenseParams:    213_000_000,
		FLOPsPerStep:   2_721e9,
		AchievedFrac:   0.64,
		TokensPerEpoch: 4_148_000_000, // 4.19 B chars, ≈1% held out
		// Calibrated to Table IV "with our technique": 23.2 h @ 8, 3.5 h
		// @ 64.
		OverheadBase: 2.305,
		OverheadQuad: 0.0001384,
		// GB-sized contiguous buffers sustain near link rate.
		IntraBW: 13e9,
		InterBW: 6.5e9,
		// GPU-resident 98×1792 embedding: update at device staging rate.
		UpdateBWIntra:    6.5e9,
		UpdateBWInter:    6.5e9,
		DupSerialization: false,
		// 213 M params + grads + Adam moments ≈ 3.4 GB, plus the depth-10
		// RHN's per-step gate/state activations over 19,200 tokens
		// ≈ 4.5 GB: baseline OOMs at 32 GPUs when the Θ(G·K·D) gather
		// scratch (4.4 GB) lands on top.
		BaseMemory:      8_600_000_000,
		BaselineStaging: 1,
		BaseMemoryOurs:  8_600_000_000,
	}
}

// tiebaLM returns the Table V workload: Chinese char LM, 15,437-character
// vocabulary (sampled softmax with seeding — the "demonstration of scaling
// character language model with large vocabulary"), weak scaling.
func tiebaLM() scalingWorkload {
	return scalingWorkload{
		Name:         "tieba-LM (weak scaling)",
		K:            128 * 150,
		D:            1792,
		Vocab:        15_437,
		Samples:      1024,
		ZipfExponent: 1.10,
		DenseParams:  213_000_000,
		// Calibrated to §V-C: 0.76 PFLOP/s across 192 GPUs ≈ 3.96
		// TFLOP/s per GPU at the measured ~10.5 s steps (27 h over the
		// 9,288 steps of the 6-GPU row).
		FLOPsPerStep:     40.85e12,
		AchievedFrac:     0.64,
		TokensPerEpoch:   0, // weak scaling: set per row
		OverheadBase:     0,
		OverheadLin:      0.0136,
		OverheadQuad:     0,
		IntraBW:          13e9,
		InterBW:          6.5e9,
		UpdateBWIntra:    6.5e9,
		UpdateBWInter:    6.5e9,
		DupSerialization: false,
		BaseMemory:       3_000_000_000,
		BaselineStaging:  1,
		BaseMemoryOurs:   3_000_000_000,
	}
}

// hardware returns the Table II cluster profile with this workload's
// effective collective bandwidths (message-size dependent) substituted.
func (w scalingWorkload) hardware() perfmodel.Hardware {
	hw := perfmodel.TitanX()
	hw.IntraBW = w.IntraBW
	hw.InterBW = w.InterBW
	return hw
}

// updateBW returns the baseline scatter-add path's effective bandwidth for
// a ring of g ranks (slower once gathered gradients arrive over the
// inter-node fabric).
func (w scalingWorkload) updateBW(g int) float64 {
	if g <= perfmodel.TitanX().GPUsPerNode {
		return w.UpdateBWIntra
	}
	return w.UpdateBWInter
}

// measuredUnique draws the real per-rank token streams and sampled-softmax
// candidate sets for one step at full scale and merges them exactly as the
// unique exchange does. Returns the largest per-rank locally-unique input
// count, the global input unique count, the largest per-rank candidate
// count (the output exchange's rows per rank), and the global output unique
// count under the given seeding strategy.
func measuredUnique(w scalingWorkload, g int, strat sampling.Strategy, seed uint64) (uiMax, ugIn, kc, ugOut int) {
	root := rng.New(seed)
	inSets := make([][]int, g)
	uiIn := make([]int, g)
	for r := 0; r < g; r++ {
		z := rng.NewZipf(root.Fork(), w.Vocab, w.ZipfExponent)
		toks := make([]int, w.K)
		for i := range toks {
			toks[i] = z.Next()
		}
		inSets[r] = toks
		uiIn[r] = corpus.CountTypes(toks)
	}
	ugIn = sampling.UniqueAcross(inSets)

	if w.Samples == 0 {
		return slices.Max(uiIn), ugIn, 0, 0
	}
	seeds := sampling.Assign(strat, g, seed+1)
	outSets := make([][]int, g)
	candPerRank := make([]int, g)
	for r := 0; r < g; r++ {
		s := sampling.NewSampler(w.Vocab, seeds[r])
		cands := s.Sample(w.Samples, inSets[r])
		outSets[r] = cands
		candPerRank[r] = len(cands)
	}
	ugOut = sampling.UniqueAcross(outSets)
	return slices.Max(uiIn), ugIn, slices.Max(candPerRank), ugOut
}

// stackKind enumerates the cumulative optimization stacks of Figure 6.
type stackKind int

const (
	stackBaseline   stackKind = iota
	stackUnique               // +uniqueness
	stackSeeded               // +seeding
	stackCompressed           // +compression
)

func (s stackKind) String() string {
	switch s {
	case stackBaseline:
		return "baseline"
	case stackUnique:
		return "+uniqueness"
	case stackSeeded:
		return "+seeding"
	case stackCompressed:
		return "+compression"
	}
	return "?"
}

// stepCost assembles the perfmodel StepCost for one configuration. It is
// the quantitative heart of Tables III/IV/V and Figure 6.
func stepCost(w scalingWorkload, g int, stack stackKind, seed uint64) perfmodel.StepCost {
	strat := sampling.AllDifferent
	if stack >= stackSeeded && w.Samples > 0 {
		strat = sampling.ZipfFreq
	}
	uiMax, ugIn, kc, ugOut := measuredUnique(w, g, strat, seed)
	fp16 := stack >= stackCompressed

	cost := perfmodel.StepCost{
		ComputeFLOPs: w.FLOPsPerStep,
		AchievedFrac: w.AchievedFrac,
		OverheadSec:  w.OverheadBase + w.OverheadLin*float64(g) + w.OverheadQuad*float64(g)*float64(g),
	}

	// Dense RNN/projection gradients: ring all-reduce every step.
	elem := int64(4)
	if fp16 {
		elem = 2
	}
	denseBytes := 2 * int64(g-1) * w.DenseParams * elem / int64(g)
	cost.WireBytes += denseBytes
	cost.WireHops += 2 * (g - 1)

	if stack == stackBaseline {
		// Input embedding: ALLGATHER of dense K×D blocks.
		in := core.BaselineCost(g, w.K, w.D, fp16)
		cost.WireBytes += in.WireBytes
		cost.WireHops += g - 1
		rows := int64(g) * int64(w.K)
		if w.Samples > 0 {
			out := core.BaselineCost(g, kc, w.D, fp16)
			cost.WireBytes += out.WireBytes
			cost.WireHops += g - 1
			rows += int64(g) * int64(kc)
		}
		cost.UpdateRows = rows
		cost.UpdateDim = w.D
		if w.DupSerialization && ugIn > 0 {
			cost.UpdateSerialization = float64(int64(g)*int64(w.K)) / float64(ugIn)
		}
		// The locked scatter-add path runs at the (calibrated) staged
		// update bandwidth; fold the ratio into the serialization factor
		// so perfmodel's MemBW baseline stays uniform.
		slow := perfmodel.TitanX().MemBW / w.updateBW(g)
		if cost.UpdateSerialization < 1 {
			cost.UpdateSerialization = 1
		}
		cost.UpdateSerialization *= slow
		return cost
	}

	// Unique exchange for the input embedding.
	in := core.UniqueCost(g, w.K, uiMax, ugIn, w.D, fp16)
	cost.WireBytes += in.WireBytes
	cost.WireHops += (g - 1) + 2*(g-1)
	rows := int64(ugIn)
	if w.Samples > 0 {
		out := core.UniqueCost(g, kc, kc, ugOut, w.D, fp16)
		cost.WireBytes += out.WireBytes
		cost.WireHops += (g - 1) + 2*(g-1)
		rows += int64(ugOut)
	}
	// Conflict-free update at full device bandwidth (§III-A).
	cost.UpdateRows = rows
	cost.UpdateDim = w.D
	cost.UpdateSerialization = 1
	return cost
}

// peakMemory models the per-GPU peak for one configuration, calibrated per
// workload (see scalingWorkload fields).
func peakMemory(w scalingWorkload, g int, stack stackKind, seed uint64) int64 {
	strat := sampling.AllDifferent
	if stack >= stackSeeded && w.Samples > 0 {
		strat = sampling.ZipfFreq
	}
	uiMax, ugIn, kc, ugOut := measuredUnique(w, g, strat, seed)

	if stack == stackBaseline {
		scratch := core.BaselineCost(g, w.K, w.D, false).ScratchBytes
		if w.Samples > 0 {
			scratch += core.BaselineCost(g, kc, w.D, false).ScratchBytes
		}
		return w.BaseMemory + int64(float64(scratch)*w.BaselineStaging)
	}
	scratch := core.UniqueCost(g, w.K, uiMax, ugIn, w.D, false).ScratchBytes
	if w.Samples > 0 {
		scratch += core.UniqueCost(g, kc, kc, ugOut, w.D, false).ScratchBytes
	}
	return w.BaseMemoryOurs + scratch
}
