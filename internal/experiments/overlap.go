package experiments

import (
	"fmt"

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
		"Overlap ablation: dense allreduce priced on a lane clock vs synchronous dense reduction (predicted step time, wire bytes)",
		runOverlap)
}

// runOverlap prices what overlapping the dense reduction with compute buys
// on the Table II cluster: the same workload steps once with the
// synchronous per-tensor dense reduction and once with Overlap, which
// reduces each dense layer as one call and prices it on a lane clock from
// the moment backprop finished that layer. Both modes execute the same
// reductions, so weights and wire bytes are identical by construction — the
// tests assert bit-equality — and the table is the virtual clock's
// prediction, where the overlapped step is the critical path of compute and
// communication rather than their sum. Every column is a function of the
// seed.
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
		simStep   float64 // predicted seconds on hw
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
		if err := tr.Steps(1); err != nil { // warm-up
			return timing{}, err
		}
		// Difference the counters around the priced section so the warm-up
		// step stays out of the reported figures.
		warmBytes, warmSim := tr.Comm().MaxStats().Total(), tr.SimSeconds()
		if err := tr.Steps(steps); err != nil {
			return timing{}, err
		}
		return timing{
			simStep:   (tr.SimSeconds() - warmSim) / float64(steps),
			wireBytes: tr.Comm().MaxStats().Total() - warmBytes,
		}, nil
	}

	tab := metrics.NewTable("Step time, synchronous vs overlapped dense reduction (predicted on "+hw.Name+"):",
		"ranks", "pred sync ms/step", "pred overlap ms/step", "pred speedup", "wire bytes/rank", "bytes identical")
	notes := []string{
		"overlap = each dense layer all-reduced as one call, priced from the moment backprop finished it; both modes execute the same reductions",
		"pred = the virtual clock's step time: the overlapped reductions run on a lane clock from the moment a layer's gradients are ready, and the device clock joins the lane clock at the end of the synchronization (critical path, not sum)",
	}
	var bestPred float64
	for _, g := range ranksList {
		sync, err := timeSteps(g, false)
		if err != nil {
			return nil, err
		}
		ov, err := timeSteps(g, true)
		if err != nil {
			return nil, err
		}
		predSpeedup := sync.simStep / ov.simStep
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
			fmt.Sprintf("%.4f", sync.simStep*1e3),
			fmt.Sprintf("%.4f", ov.simStep*1e3),
			fmt.Sprintf("%.2fx", predSpeedup),
			metrics.HumanBytes(ov.wireBytes),
			same,
		)
	}
	notes = append(notes, fmt.Sprintf("best predicted step speedup from overlap: %.2fx", bestPred))
	return &Report{Tables: []*metrics.Table{tab}, Notes: notes}, nil
}
