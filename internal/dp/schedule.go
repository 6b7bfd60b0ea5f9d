package dp

// The schedule layer: a training step is, per rank, a sequence of
// schedule ops produced by stageSchedule and executed by one small
// interpreter over the rank body. Keeping the step structure in data —
// instead of in the rank body — is what lets one interpreter, one STV
// redo rule, and one engine control plane drive every (R,S,P) shape.

import (
	"slices"

	"superoffload/internal/nn"
)

// opKind enumerates the schedule ops a rank can execute in one step.
type opKind int

const (
	// opForward runs the forward pass of micro-batch `micro`.
	opForward opKind = iota
	// opBackward runs the backward pass of micro-batch `micro`, scaled by
	// the command's loss scale.
	opBackward
	// opReduce sends micro `micro`'s gradient contributions to their
	// bucket owners, then folds what has arrived at this rank's owned
	// buckets; only the step's last opReduce (micro M−1) waits for every
	// contribution.
	opReduce
	// opResolve applies the previous step's verdict, which the command
	// carries, to the owned partition. If the weights changed
	// (rollback/clip), every forwarded-but-not-yet-backwarded micro
	// re-runs its forward on the corrected weights — the STV redo.
	opResolve
	// opSendAct ships micro `micro`'s boundary activation downstream to
	// the next pipeline stage; opRecvAct receives it from upstream.
	opSendAct
	opRecvAct
	// opSendGrad ships micro `micro`'s boundary gradient upstream to the
	// previous pipeline stage; opRecvGrad receives it from downstream.
	opSendGrad
	opRecvGrad
	// opSpeculate runs the speculative optimizer step on the owned
	// partition and records each owned bucket's sum of squares for the
	// engine's verdict.
	opSpeculate
	// opReport sends the rank's stepResult to the engine.
	opReport
)

// opSpanNames labels each opKind for the trace span it emits;
// opHasMicro marks the kinds whose micro field is meaningful (and
// worth tagging).
var opSpanNames = [...]string{
	opForward: "forward", opBackward: "backward", opReduce: "reduce",
	opResolve: "resolve", opSendAct: "sendAct",
	opRecvAct: "recvAct", opSendGrad: "sendGrad", opRecvGrad: "recvGrad",
	opSpeculate: "speculate", opReport: "report",
}

// opHasMicro reports whether kind's micro field indexes a micro-batch.
func opHasMicro(kind opKind) bool {
	switch kind {
	case opForward, opBackward, opReduce, opSendAct, opRecvAct, opSendGrad, opRecvGrad:
		return true
	}
	return false
}

// scheduleOp is one step of a rank's schedule.
type scheduleOp struct {
	kind  opKind
	micro int
}

// stageSchedule is pipeline stage `stage`'s 1F1B schedule over `micros`
// micro-batches (the only schedule builder; it must stay deterministic —
// every rank of a collective group emits matching collective ops in
// matching order, or the channel collectives deadlock). It runs the
// classic warmup/steady/cooldown pattern: min(stages-1-stage, micros)
// warmup forwards, alternating forward/backward in steady state, and
// draining backwards. Each forward is bracketed by recvAct (stages above
// 0) and sendAct (stages below the last); each backward by
// recvGrad/sendGrad symmetrically, followed by that micro's reduce.
//
// Where the previous step's verdict is applied depends on the depth.
// With one stage, forward 0 runs BEFORE resolve — Fig. 8's order, in
// which the next step's first forward runs on speculative weights and a
// weight-changing verdict redoes exactly that one forward. With several
// stages it resolves first (numerically identical — forwards read
// post-resolution weights either way), which keeps the redo machinery
// off the multi-micro-in-flight pipeline.
func stageSchedule(stage, stages, micros int) []scheduleOp {
	perMicro := 3 // forward, backward, reduce
	if stage > 0 {
		perMicro += 2 // recvAct, sendGrad
	}
	if stage < stages-1 {
		perMicro += 2 // sendAct, recvGrad
	}
	ops := make([]scheduleOp, 0, perMicro*micros+3)
	resolve := scheduleOp{kind: opResolve}
	if stages > 1 {
		ops = append(ops, resolve)
	}
	emitF := func(m int) {
		if stage > 0 {
			ops = append(ops, scheduleOp{kind: opRecvAct, micro: m})
		}
		ops = append(ops, scheduleOp{kind: opForward, micro: m})
		if stage < stages-1 {
			ops = append(ops, scheduleOp{kind: opSendAct, micro: m})
		}
		if stages == 1 && m == 0 {
			ops = append(ops, resolve)
		}
	}
	emitB := func(m int) {
		if stage < stages-1 {
			ops = append(ops, scheduleOp{kind: opRecvGrad, micro: m})
		}
		ops = append(ops, scheduleOp{kind: opBackward, micro: m})
		if stage > 0 {
			ops = append(ops, scheduleOp{kind: opSendGrad, micro: m})
		}
		ops = append(ops, scheduleOp{kind: opReduce, micro: m})
	}
	warmup := stages - 1 - stage
	if warmup > micros {
		warmup = micros
	}
	fwd, bwd := 0, 0
	for ; fwd < warmup; fwd++ {
		emitF(fwd)
	}
	for fwd < micros {
		emitF(fwd)
		fwd++
		emitB(bwd)
		bwd++
	}
	for bwd < micros {
		emitB(bwd)
		bwd++
	}
	return append(ops, scheduleOp{kind: opSpeculate}, scheduleOp{kind: opReport})
}

// runSchedule interprets one command's op sequence on rank r over the
// command's micro-batches, growing the per-micro slots to cover them
// (slots, and their cache arenas, outlive the step). The ops read the
// verdict, loss scale and step parameters the command carries. It owns
// the STV redo rule: on a weight-changing resolution, every micro that
// has forwarded but not yet backwarded re-runs its forward — which at
// P=1 is exactly micro 0. Tracing rides the same loop: when the world
// carries a tracer, every op becomes one span on the rank's track (named
// after its opKind, tagged with its micro), and so does each redo
// forward — which is what gives every shape a per-rank timeline from a
// single tap point. With tracing off the track is nil and each span is a
// no-op.
func (r *rank) runSchedule(c command) {
	r.micros = c.micros
	for len(r.passes) < len(c.micros) {
		r.rows = append(r.rows, nil)
		r.passes = append(r.passes, &nn.Lanes{})
		r.bounds = append(r.bounds, nil)
		r.dBounds = append(r.dBounds, nil)
	}
	r.inFlight = r.inFlight[:0]
	tk := r.w.tracks[r.id]
	for _, op := range c.ops {
		sp := tk.Begin(opSpanNames[op.kind])
		redo := false
		switch op.kind {
		case opForward:
			r.forward(op.micro)
			r.inFlight = append(r.inFlight, op.micro)
		case opBackward:
			r.backward(op.micro, c.scale)
			r.inFlight = slices.DeleteFunc(r.inFlight, func(m int) bool { return m == op.micro })
		case opReduce:
			r.reduce(op.micro)
		case opResolve:
			r.apply(c.res)
			redo = c.res.WeightsChanged()
		case opSendAct:
			r.sendAct(op.micro)
		case opRecvAct:
			r.recvAct(op.micro)
		case opSendGrad:
			r.sendGrad(op.micro)
		case opRecvGrad:
			r.recvGrad(op.micro)
		case opSpeculate:
			r.speculate(c)
		case opReport:
			r.w.results[r.id] <- r.report()
		}
		if opHasMicro(op.kind) {
			sp.EndMicro(op.micro)
		} else {
			sp.End()
		}
		if redo {
			for _, m := range r.inFlight {
				sp := tk.Begin(opSpanNames[opForward])
				r.forward(m)
				sp.EndMicro(m)
			}
		}
	}
}
