package model

import (
	"fmt"
	"math"

	"zipflm/internal/sampling"
	"zipflm/internal/tensor"
)

// fullSoftmaxLoss scores every vocabulary word: logits = h·Eᵀ over the
// output embedding E (V×D), then cross-entropy against the targets. The
// paper's character model uses this (§V-B: "full softmax was used instead
// of sampled softmax layer" because the vocabulary is tiny), and validation
// perplexity always does.
//
// Returns the summed cross-entropy (nats), token count, dLoss/dh (nil when
// computeGrad is false) and the dense dLoss/dE (nil likewise). Gradients
// are for the *mean* loss over the batch. Every matrix, the returned ones
// included, is carved from ws: the logits and their gradient are the largest
// blocks of a step, and a fresh pair per step was most of its garbage.
//
// be selects the compute backend for the logits and gradient products — the
// largest matmuls of a training step; nil means the serial reference.
func fullSoftmaxLoss(ws *workspace, be tensor.Backend, h *tensor.Matrix, outEmb *tensor.Matrix, targets []int, computeGrad bool) (lossSum float64, count int, dh, dEmb *tensor.Matrix) {
	if be == nil {
		be = tensor.Serial{}
	}
	if h.Rows != len(targets) {
		panic(fmt.Sprintf("model: %d hidden rows, %d targets", h.Rows, len(targets)))
	}
	v := outEmb.Rows
	logits := ws.take(h.Rows, v)
	be.MatMulABT(logits, h, outEmb)

	count = len(targets)
	var dlogits *tensor.Matrix
	if computeGrad {
		dlogits = ws.take(h.Rows, v)
	}
	invCount := float32(1)
	if count > 0 {
		invCount = float32(1.0 / float64(count))
	}
	for b, target := range targets {
		if target < 0 || target >= v {
			panic(fmt.Sprintf("model: target %d outside vocabulary %d", target, v))
		}
		row := logits.Row(b)
		if !computeGrad {
			lossSum += tensor.LogSumExpRow(row) - float64(row[target])
			continue
		}
		lossSum += crossEntropyRow(dlogits.Row(b), row, target, invCount)
	}
	if !computeGrad {
		return lossSum, count, nil, nil
	}
	dh = ws.take(h.Rows, h.Cols)
	be.MatMul(dh, dlogits, outEmb)
	dEmb = ws.take(v, h.Cols)
	be.MatMulATB(dEmb, dlogits, h)
	return lossSum, count, dh, dEmb
}

// crossEntropyRow is one token of either softmax: it returns the row's
// cross-entropy log Σ exp(row) − row[target] in nats and fills dr with the
// gradient of the mean loss with respect to the logits, (softmax(row) −
// onehot(target))·invCount. Each logit is exponentiated once: the numerators
// go to dr, and their lane-striped sum both normalizes them and gives the
// log-sum-exp (tensor.ExpSumRow; the value tensor.LogSumExpRow returns).
func crossEntropyRow(dr, row []float32, target int, invCount float32) float64 {
	maxV, sum := tensor.ExpSumRow(dr, row)
	tensor.Scale(dr, invCount/sum)
	dr[target] -= invCount
	return float64(maxV) + math.Log(float64(sum)) - float64(row[target])
}

// sampledSoftmaxResult carries what a sampled-softmax step produces.
type sampledSoftmaxResult struct {
	// LossSum is the summed sampled cross-entropy (nats) over the batch.
	LossSum float64
	// Count is the number of scored tokens.
	Count int
	// DH is dLoss/dh for the mean loss (B×D).
	DH *tensor.Matrix
	// Candidates are the scored vocabulary ids (unique, targets included).
	Candidates []int
	// DEmb is the len(Candidates)×D gradient of the output embedding rows
	// — exactly the SparseGrad the §III exchange engines consume.
	DEmb *tensor.Matrix
}

// sampledSoftmaxLoss scores only the candidate set drawn by the rank's
// sampler (§II-A): S negatives from the log-uniform distribution plus the
// batch's target words, with the standard log-expected-count logit
// correction so the sampled loss estimates the full loss. be selects the
// compute backend (nil: the serial reference). Like fullSoftmaxLoss it works
// in ws, the result's matrices included; only the candidate list is the
// sampler's own.
func sampledSoftmaxLoss(ws *workspace, be tensor.Backend, h *tensor.Matrix, outEmb *tensor.Matrix, targets []int, s sampling.CandidateSampler, nSamples int) sampledSoftmaxResult {
	if be == nil {
		be = tensor.Serial{}
	}
	if h.Rows != len(targets) {
		panic(fmt.Sprintf("model: %d hidden rows, %d targets", h.Rows, len(targets)))
	}
	candidates := s.Sample(nSamples, targets)
	nc := len(candidates)
	if ws.candPos == nil {
		ws.candPos = make(map[int]int, nc)
	}
	candPos := ws.candPos
	clear(candPos)
	for i, c := range candidates {
		candPos[c] = i
	}

	// Candidate embedding block (nc×D) and logits (B×nc).
	candEmb := ws.take(nc, outEmb.Cols)
	tensor.GatherRows(candEmb, outEmb, candidates)
	logits := ws.take(h.Rows, nc)
	be.MatMulABT(logits, h, candEmb)

	// Subtract log(S·Q(c)) per candidate column.
	corr := ws.take(1, nc).Data
	for i, c := range candidates {
		corr[i] = float32(s.LogExpectedCount(nSamples, c))
	}
	for b := 0; b < logits.Rows; b++ {
		row := logits.Row(b)
		for j := range row {
			row[j] -= corr[j]
		}
	}

	res := sampledSoftmaxResult{Count: len(targets), Candidates: candidates}
	dlogits := ws.take(h.Rows, nc)
	invCount := float32(1.0 / float64(len(targets)))
	for b, target := range targets {
		pos, ok := candPos[target]
		if !ok {
			panic("model: target missing from candidate set")
		}
		res.LossSum += crossEntropyRow(dlogits.Row(b), logits.Row(b), pos, invCount)
	}

	res.DH = ws.take(h.Rows, h.Cols)
	be.MatMul(res.DH, dlogits, candEmb)
	res.DEmb = ws.take(nc, outEmb.Cols)
	be.MatMulATB(res.DEmb, dlogits, h)
	return res
}
