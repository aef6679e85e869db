package model

import (
	"fmt"

	"zipflm/internal/rng"
	"zipflm/internal/sampling"
	"zipflm/internal/tensor"
)

// Speculative decoding (Leviathan et al. style, adapted to RNNs). A small
// draft model proposes up to k tokens by greedy argmax; the big target model
// verifies them and emission stops at the first position where the target's
// own draw disagrees with the next proposal. An RNN cannot batch the
// verification across time — the recurrence serializes the cell — but the
// cell is the cheap part: the V×D logits product dominates single-token
// decode, and that part has no recurrence. So verification runs j cheap
// serial cell steps (StepCells) and then ONE batched LogitsFor over all j
// positions, turning j memory-bound vector-matrix products into one
// matrix-matrix product.
//
// Exactness: every emitted token is drawn by sampling.Decoder.Sample from
// the target's true-prefix logits — row t of the batched call is
// bit-identical to the logits a sequential Step would produce after the same
// tokens (the Stepper per-row contract) — and Sample draws exactly the
// sequential schedule's variates (one per emitted token at temperature > 0,
// none at 0) because draft proposals are RNG-free argmax. Output is
// therefore bit-identical to GenerateOpts at EVERY temperature and filter
// setting, not only at temperature 0; what the draft model changes is the
// cost per token, never the tokens. The paper's Zipf skew is what makes the
// trade favorable: most next-token draws are head tokens a small model
// predicts as well as a large one, so acceptance rates stay high.

// SpecStats counts speculative-decoding work. Proposed/Accepted measure
// draft quality; DraftSteps measures overhead (draft model forward steps,
// including state-tracking steps that propose nothing).
type SpecStats struct {
	// Rounds is the number of verify rounds.
	Rounds int
	// Proposed is the number of draft proposals offered to the target.
	Proposed int
	// Accepted is the number of proposals the target accepted.
	Accepted int
	// DraftSteps is the total number of draft model steps.
	DraftSteps int
}

// AcceptanceRate returns Accepted/Proposed (0 before any proposal).
func (s SpecStats) AcceptanceRate() float64 {
	if s.Proposed == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(s.Proposed)
}

// SpecDecoder generates from a target model with draft-assisted speculative
// decoding. All scratch is allocated at construction; it is not safe for
// concurrent use (the serving layer gives each worker its own).
type SpecDecoder struct {
	target, draft *LM
	k             int

	tst, dst *Stepper
	dec      *sampling.Decoder
	hStack   *tensor.Matrix // (k+1)×H verified-position hidden rows
	dh       *tensor.Matrix // 1×H draft StepCells sink for proposal-free steps
	tState   *GenState
	dState   *GenState
	tSnaps   []*GenState // tSnaps[t]: target state after consuming feed[0..t]
	dSnaps   []*GenState // dSnaps[t]: draft state after consuming feed[0..t]
	feed     []int       // feed[0] = last emitted/prompt token, feed[1..] = proposals
	ids      []int       // batch-1 scratch
	tIDs     []int
	tStates  []*GenState
	dStates  []*GenState

	stats SpecStats
}

// NewSpecDecoder pairs a target model with a draft that proposes k tokens
// per round. The models must share a vocabulary (they need not share an
// architecture — the intended pairing is a small RHN drafting for the big
// LSTM). k must be at least 1.
func NewSpecDecoder(target, draft *LM, k int) *SpecDecoder {
	if k < 1 {
		panic("model: speculative lookahead k must be at least 1")
	}
	if target.Cfg.Vocab != draft.Cfg.Vocab {
		panic(fmt.Sprintf("model: target vocab %d != draft vocab %d", target.Cfg.Vocab, draft.Cfg.Vocab))
	}
	sd := &SpecDecoder{
		target: target, draft: draft, k: k,
		tst:    target.NewStepper(k + 1),
		dst:    draft.NewStepper(1),
		dec:    sampling.NewDecoder(target.Cfg.Vocab),
		hStack: tensor.NewMatrix(k+1, target.Cfg.Hidden),
		dh:     tensor.NewMatrix(1, draft.Cfg.Hidden),
		tState: target.NewGenState(),
		dState: draft.NewGenState(),
		feed:   make([]int, k+1),
		ids:    make([]int, 1),
	}
	for t := 0; t <= k; t++ {
		sd.tSnaps = append(sd.tSnaps, target.NewGenState())
		sd.dSnaps = append(sd.dSnaps, draft.NewGenState())
	}
	sd.tIDs = make([]int, 1)
	sd.tStates = []*GenState{sd.tState}
	sd.dStates = []*GenState{sd.dState}
	return sd
}

// Stats returns cumulative counters across every Generate call.
func (sd *SpecDecoder) Stats() SpecStats { return sd.stats }

// Generate is a drop-in replacement for LM.GenerateOpts on the target model:
// same arguments, bitwise-identical output, fewer target logits products
// when the draft guesses well.
func (sd *SpecDecoder) Generate(prompt []int, n int, opts sampling.DecodeOpts, r *rng.RNG) []int {
	if len(prompt) == 0 {
		panic("model: Generate needs a non-empty prompt")
	}
	if err := opts.Validate(); err != nil {
		panic("model: " + err.Error())
	}
	for _, id := range prompt {
		if id < 0 || id >= sd.target.Cfg.Vocab {
			panic(fmt.Sprintf("model: prompt token %d outside vocabulary", id))
		}
	}

	sd.tState.Reset()
	sd.dState.Reset()

	// Warm both models on all prompt tokens but the last; the round
	// invariant below is "both models have consumed everything up to but
	// not including the newest token".
	viewRows(sd.hStack, sd.k+1)
	head := prompt[:len(prompt)-1]
	sd.tst.warm(head, sd.tState)
	sd.dst.warm(head, sd.dState)
	sd.stats.DraftSteps += len(head)

	out := make([]int, 0, n)
	last := prompt[len(prompt)-1]
	for len(out) < n {
		rem := n - len(out)
		j := sd.k + 1
		if rem < j {
			j = rem
		}

		// Draft phase: j-1 proposals by argmax, snapshotting the draft
		// state after each consumed token for rollback.
		sd.feed[0] = last
		for i := 1; i < j; i++ {
			sd.ids[0] = sd.feed[i-1]
			dlg := sd.dst.Step(sd.ids, sd.dStates)
			sd.dSnaps[i-1].CopyFrom(sd.dState)
			sd.feed[i] = sampling.Argmax(dlg.Row(0))
			sd.stats.DraftSteps++
		}

		// Verify phase: j serial cell steps through the target (cheap),
		// then one batched logits product over all j positions (the part
		// that was the whole cost of sequential decode).
		for t := 0; t < j; t++ {
			sd.stepTarget(sd.feed[t], t)
			sd.tSnaps[t].CopyFrom(sd.tState)
		}
		viewRows(sd.hStack, j)
		lg := sd.tst.LogitsFor(sd.hStack)
		viewRows(sd.hStack, sd.k+1)

		// Emission: row t holds the target's true logits after the prefix
		// plus the t accepted proposals. Draw with the sequential RNG
		// schedule; stop at the first draw that contradicts the next
		// proposal and roll both models back to that point.
		mismatch := -1
		emitted := 0
		for t := 0; t < j; t++ {
			next := sd.dec.Sample(lg.Row(t), opts, r)
			out = append(out, next)
			emitted++
			if t+1 < j && next != sd.feed[t+1] {
				mismatch = t
				break
			}
		}
		if mismatch >= 0 {
			sd.tState.CopyFrom(sd.tSnaps[mismatch])
			sd.dState.CopyFrom(sd.dSnaps[mismatch])
		} else if len(out) < n {
			// Full accept: the draft is one token behind the invariant
			// (it never consumed the round's final fed token).
			sd.stepDraft(sd.feed[j-1])
		}
		last = out[len(out)-1]

		sd.stats.Rounds++
		sd.stats.Proposed += j - 1
		sd.stats.Accepted += emitted - 1
	}
	return out
}

// stepTarget advances the target one cell step on tok, writing the hidden
// row into hStack[row].
func (sd *SpecDecoder) stepTarget(tok, row int) {
	sd.tIDs[0] = tok
	sd.tst.StepCells(sd.tIDs, sd.tStates, sd.hStack, row)
}

// stepDraft advances the draft one cell step on tok without proposing.
func (sd *SpecDecoder) stepDraft(tok int) {
	sd.ids[0] = tok
	sd.dst.StepCells(sd.ids, sd.dStates, sd.dh, 0)
	sd.stats.DraftSteps++
}
