package experiments

import (
	"fmt"
	"time"

	"zipflm/internal/core"
	"zipflm/internal/corpus"
	"zipflm/internal/metrics"
	"zipflm/internal/model"
	"zipflm/internal/perfmodel"
	"zipflm/internal/sampling"
	"zipflm/internal/trainer"
)

func init() {
	register("overlap",
		"Overlap ablation: dense allreduce on the communicator's side lane vs synchronous dense reduction (step wall-clock, measured and predicted)",
		runOverlap)
}

// runOverlap measures what the communication substrate work buys on the
// training hot path: the same workload steps once with the synchronous
// per-tensor dense reduction and once with the overlapped path (each dense
// layer's fused ring all-reduce issued on the side lane during backprop and
// running under the sparse embedding exchange). Replicas and wire bytes are
// identical by construction — the tests assert bit-equality — so the only
// thing allowed to change is time: measured wall-clock on this host, and
// the virtual clock's prediction for the Table II cluster, where the
// overlapped step is the critical path of compute and communication rather
// than their sum.
func runOverlap(opts Options) (*Report, error) {
	ranksList := []int{2, 4, 8}
	steps := 8
	mc := model.Config{
		Vocab: 4000, Dim: 96, Hidden: 192, RNN: model.KindLSTM, Sampled: 96,
	}
	batch, seqLen := 8, 20
	if opts.Quick {
		ranksList = []int{2, 4}
		steps = 3
		mc = model.Config{Vocab: 500, Dim: 32, Hidden: 48, RNN: model.KindLSTM, Sampled: 32}
		batch, seqLen = 4, 12
	}

	gen := corpus.NewGenerator(corpus.GeneratorConfig{
		VocabSize:    mc.Vocab - 1,
		ZipfExponent: 1.1,
		Seed:         opts.Seed,
	})
	maxRanks := ranksList[len(ranksList)-1]
	perRank := (steps + 2) * batch * seqLen
	stream := gen.Stream(perRank*maxRanks + 2000)
	train, valid := corpus.Split(stream, 20, 100, opts.Seed)

	// The usual 6 FLOPs per dense parameter per token, at the word LM's
	// measured fraction of peak (§V).
	hw := perfmodel.TitanX()
	flops := 6 * float64(model.NumParams(model.NewLM(mc).DenseLayers()...)) * float64(batch*seqLen)

	type timing struct {
		perStep   time.Duration // measured wall-clock
		simStep   float64       // predicted seconds on hw
		wireBytes int64
	}
	timeSteps := func(ranks int, overlap bool) (timing, error) {
		cfg := trainer.Config{
			Model:           mc,
			Ranks:           ranks,
			BatchPerRank:    batch,
			SeqLen:          seqLen,
			LR:              0.1,
			Exchange:        core.UniqueExchange{},
			SeedStrategy:    sampling.ZipfFreq,
			BaseSeed:        opts.Seed,
			Overlap:         overlap,
			Hardware:        &hw,
			SimFLOPsPerStep: flops,
			SimAchievedFrac: 0.4,
		}
		tr, err := trainer.New(cfg, train, valid)
		if err != nil {
			return timing{}, err
		}
		if err := tr.Steps(1); err != nil { // warm pools, caches, samplers
			return timing{}, err
		}
		// Difference the counters around the timed section so the warm-up
		// step stays out of the reported figures.
		warmBytes, warmSim := tr.Comm().MaxStats().Total(), tr.SimSeconds()
		start := time.Now()
		if err := tr.Steps(steps); err != nil {
			return timing{}, err
		}
		return timing{
			perStep:   time.Since(start) / time.Duration(steps),
			simStep:   (tr.SimSeconds() - warmSim) / float64(steps),
			wireBytes: tr.Comm().MaxStats().Total() - warmBytes,
		}, nil
	}

	tab := metrics.NewTable("Step time, synchronous vs overlapped dense reduction (measured on this host; predicted on "+hw.Name+"):",
		"ranks", "sync ms/step", "overlap ms/step", "speedup",
		"pred sync ms/step", "pred overlap ms/step", "pred speedup", "wire bytes/rank", "bytes identical")
	notes := []string{
		"overlap = a per-rank worker all-reduces each dense layer (one fused ring pass) on the communicator's side lane during backprop and under the sparse exchange; pooled buffers on both paths",
		"pred = the virtual clock's step time: the side lane runs on its own per-rank clocks from the moment a layer's gradients are ready, and the rank joins it when the step drains (critical path, not sum)",
	}
	var bestSpeedup, bestPred float64
	for _, g := range ranksList {
		sync, err := timeSteps(g, false)
		if err != nil {
			return nil, err
		}
		ov, err := timeSteps(g, true)
		if err != nil {
			return nil, err
		}
		speedup := float64(sync.perStep) / float64(ov.perStep)
		predSpeedup := sync.simStep / ov.simStep
		bestSpeedup = max(bestSpeedup, speedup)
		bestPred = max(bestPred, predSpeedup)
		same := "yes"
		if sync.wireBytes != ov.wireBytes {
			same = fmt.Sprintf("NO (%d vs %d)", sync.wireBytes, ov.wireBytes)
			notes = append(notes, fmt.Sprintf(
				"WARNING: ranks=%d wire bytes differ between modes — overlap must not change accounting", g))
		}
		if ov.simStep > sync.simStep {
			notes = append(notes, fmt.Sprintf(
				"WARNING: ranks=%d predicted overlapped step %.4g s exceeds the synchronous %.4g s", g, ov.simStep, sync.simStep))
		}
		tab.AddRow(
			fmt.Sprintf("%d", g),
			fmt.Sprintf("%.2f", float64(sync.perStep)/1e6),
			fmt.Sprintf("%.2f", float64(ov.perStep)/1e6),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%.4f", sync.simStep*1e3),
			fmt.Sprintf("%.4f", ov.simStep*1e3),
			fmt.Sprintf("%.2fx", predSpeedup),
			metrics.HumanBytes(ov.wireBytes),
			same,
		)
	}
	notes = append(notes, fmt.Sprintf("best step speedup from overlap: %.2fx measured, %.2fx predicted", bestSpeedup, bestPred))
	return &Report{Tables: []*metrics.Table{tab}, Notes: notes}, nil
}
