package dp

import (
	"fmt"
	"io"

	"superoffload/internal/act"
	"superoffload/internal/data"
	"superoffload/internal/nn"
	"superoffload/internal/stv"
)

// Engine coordinates the R·S·P rank goroutines of one (R,S,P) shape
// through the STV schedule; (1,1,1) is the single superchip. Methods are
// not safe for concurrent use — one goroutine drives training — except
// the telemetry getters, which may be polled while a step runs.
type Engine struct {
	cfg   Config
	ctl   *stv.Verdict // the run's step counter, loss scale and verdict policy
	w     *world
	ranks []*rank
	// buckets is the global bucket order; entry b points at the owning
	// rank's optimizer state (used for checkpointing and diagnostics).
	buckets []*stv.Bucket
	// micross[id] is rank id's micro-batches of the current step, and
	// seqBuf holds the token and target copies of its sequence shards.
	// Both are reused step to step: a rank reads them only inside the
	// step, before its report, and a shard outlives a growth of seqBuf
	// in the array it was copied into.
	micross [][]data.Batch
	seqBuf  []int
	// results holds the ranks' reports of the current step, and
	// schedules one op list per (stage, micros), built once and read by
	// every rank of that stage.
	results   []stepResult
	schedules map[[2]int][]scheduleOp
}

// New builds an engine of shape (cfg.Ranks, cfg.SeqRanks, cfg.PipeRanks)
// over the model. The model becomes rank (0,0,0)'s replica; the other
// ranks train on bit-identical clones, each computing only its own
// stage's block range over its own rows and sequence shard. The fp32
// masters and Adam moments are partitioned across all ranks along bucket
// boundaries (round-robin), never replicated.
func New(model *nn.GPT, cfg Config) (*Engine, error) {
	if model == nil {
		return nil, fmt.Errorf("dp: nil model")
	}
	if cfg.Mode != stv.STV && cfg.Mode != stv.STE {
		return nil, fmt.Errorf("dp: unknown mode %d", cfg.Mode)
	}
	cfg = cfg.withDefaults()
	r, s, p := cfg.Ranks, cfg.SeqRanks, cfg.PipeRanks
	switch { // the shape's rules, named by the facade's MeshConfig fields
	case r < 1:
		return nil, &data.ConfigError{Field: "MeshConfig.Ranks", Value: r, Want: ">= 1 (0 means 1)"}
	case s < 1:
		return nil, &data.ConfigError{Field: "MeshConfig.SeqRanks", Value: s, Want: ">= 1 (0 means 1)"}
	case p < 1:
		return nil, &data.ConfigError{Field: "MeshConfig.PipeRanks", Value: p, Want: ">= 1 (0 means 1)"}
	case model.Cfg.Heads%s != 0:
		return nil, &data.ConfigError{Field: "MeshConfig.SeqRanks", Value: s,
			Want: fmt.Sprintf("a divisor of ModelConfig.Heads (%d): attention heads shard across sequence ranks", model.Cfg.Heads)}
	case len(model.Blocks) < p:
		return nil, &data.ConfigError{Field: "MeshConfig.PipeRanks", Value: p,
			Want: fmt.Sprintf("<= ModelConfig.Layers (%d): every pipeline stage needs a transformer block", len(model.Blocks))}
	}
	nBuckets := len(stv.PartitionGroups(model.Params(), cfg.BucketElems))
	if cfg.Placement != nil {
		if err := cfg.Placement.Validate(nBuckets); err != nil {
			return nil, fmt.Errorf("dp: %w", err)
		}
	}
	w := newWorld(r, s, p, nBuckets)
	w.attachTracer(cfg.Tracer)
	e := &Engine{cfg: cfg, ctl: stv.NewVerdict(cfg.Config), w: w, buckets: make([]*stv.Bucket, nBuckets),
		micross: make([][]data.Batch, w.N), results: make([]stepResult, w.N), schedules: map[[2]int][]scheduleOp{}}
	newStore := cfg.NewStore
	if newStore == nil {
		newStore = func(int) (stv.BucketStore, error) { return stv.NewDRAMStore(), nil }
	}
	stores, err := buildPerRank(w.N, "store", newStore)
	if err != nil {
		return nil, err
	}
	// Activation stores attach only on final-stage ranks (see
	// Config.NewActStore), so no store is built just to sit idle.
	acts, err := buildPerRank(w.N, "activation store", func(rank int) (*act.Store, error) {
		if cfg.NewActStore == nil || rank%p != p-1 {
			return nil, nil
		}
		return cfg.NewActStore(rank)
	})
	if err != nil {
		return nil, closeStores(stores, err)
	}
	for g := 0; g < r; g++ {
		for sl := 0; sl < s; sl++ {
			for st := 0; st < p; st++ {
				id := (g*s+sl)*p + st
				replica := model
				if id > 0 {
					replica = model.Clone()
				}
				rk := newRank(g, sl, st, w, replica, cfg, stores[id], acts[id])
				for _, b := range rk.owned {
					e.buckets[b.Index()] = b
				}
				e.ranks = append(e.ranks, rk)
				go rk.run()
			}
		}
	}
	return e, nil
}

// CommStats reports the engine's cumulative link traffic: every cell's
// all-to-all and ring links plus the stage-boundary tensor sends.
func (e *Engine) CommStats() SPCommStats { return e.w.tel.snapshot() }

// StoreTelemetry sums the modeled NVMe telemetry over every rank's store.
// ok is false when no rank carries a flash tier (NVMeStore, or
// PlacedStore with NVMe-tier buckets).
func (e *Engine) StoreTelemetry() (stv.StoreTelemetry, bool) {
	return sumRanks(e.ranks, func(rk *rank) (stv.StoreTelemetry, bool) {
		if src, ok := rk.store.(stv.TelemetrySource); ok {
			return src.NVMeTelemetry()
		}
		return stv.StoreTelemetry{}, false
	})
}

// PlacementTelemetry sums the virtual-clock superchip executors' modeled
// accounting over every rank; ok is false without a placement plan.
func (e *Engine) PlacementTelemetry() (stv.PlacementTelemetry, bool) {
	return sumRanks(e.ranks, func(rk *rank) (stv.PlacementTelemetry, bool) {
		if rk.exec == nil {
			return stv.PlacementTelemetry{}, false
		}
		return rk.exec.Telemetry(), true
	})
}

// ActTelemetry sums the activation stores' traffic and modeled-time
// accounting over the final-stage ranks; ok is false without an
// activation tier.
func (e *Engine) ActTelemetry() (act.Telemetry, bool) {
	return sumRanks(e.ranks, func(rk *rank) (act.Telemetry, bool) {
		if rk.ast == nil {
			return act.Telemetry{}, false
		}
		return rk.ast.Telemetry(), true
	})
}

// sumRanks adds up the telemetry of every rank that has some; ok is
// false when none has.
func sumRanks[T interface{ Add(T) T }](ranks []*rank, of func(*rank) (T, bool)) (sum T, ok bool) {
	for _, rk := range ranks {
		if tel, has := of(rk); has {
			sum, ok = sum.Add(tel), true
		}
	}
	return sum, ok
}

// Ranks reports the data-parallel degree R (the number of replica
// groups).
func (e *Engine) Ranks() int { return e.w.R }

// SeqRanks reports the per-cell sequence-parallel degree S.
func (e *Engine) SeqRanks() int { return e.w.S }

// PipeRanks reports the pipeline-parallel degree P (stages per column).
func (e *Engine) PipeRanks() int { return e.w.P }

// MasterWeights returns the fp32 master parameters gathered from their
// owners, concatenated in bucket order — the ground truth for exactness
// comparisons against the reference (internal/stv/stvref).
func (e *Engine) MasterWeights() []float32 { return stv.MasterWeights(e.buckets) }

// NumBuckets reports how many offload buckets the parameter space uses.
func (e *Engine) NumBuckets() int { return len(e.buckets) }

// split shards a global batch over the engine, appending rank id's
// shard to micross[id]: rows split R ways across groups, each group
// slice's sequence splits S ways across the cell's ranks, and every stage
// rank of a column receives the same (rows, sequence) shard — stage 0
// reads its tokens, the final stage its targets, and every stage its
// shape. The batch is validated here, in the caller's goroutine, so a
// malformed one surfaces as an error instead of a rank-goroutine panic.
func (e *Engine) split(b data.Batch) error {
	w, g := e.w, e.ranks[0].model
	if err := b.Check(g.Cfg.Vocab, g.MaxSeq); err != nil {
		return err
	}
	if b.BatchSize%w.R != 0 {
		return &data.ConfigError{Field: "Batch.BatchSize", Value: b.BatchSize,
			Want: fmt.Sprintf("a multiple of MeshConfig.Ranks (%d): rows split across data-parallel groups", w.R)}
	}
	if b.Seq%w.S != 0 {
		return &data.ConfigError{Field: "Batch.Seq", Value: b.Seq,
			Want: fmt.Sprintf("a multiple of MeshConfig.SeqRanks (%d): positions split across sequence ranks", w.S)}
	}
	// The pass's own guard: after New's checks and the ones above, inert.
	if err := g.ValidateSP(w.S, b.Seq); err != nil {
		return fmt.Errorf("dp: %w", err)
	}
	per := b.BatchSize / w.R
	for gr := 0; gr < w.R; gr++ {
		lo, hi := gr*per*b.Seq, (gr+1)*per*b.Seq
		rows := data.Batch{Tokens: b.Tokens[lo:hi], Targets: b.Targets[lo:hi], BatchSize: per, Seq: b.Seq}
		for s := 0; s < w.S; s++ {
			shard := rows
			if w.S > 1 {
				shard = e.seqShard(rows, s)
			}
			for p := 0; p < w.P; p++ {
				id := (gr*w.S+s)*w.P + p
				e.micross[id] = append(e.micross[id], shard)
			}
		}
	}
	return nil
}

// seqShard is sequence shard s of the engine's S of a batch: positions
// [s·T/S, (s+1)·T/S) of every batch row, copied onto seqBuf. The caller
// has validated divisibility (nn.GPT.ValidateSP).
func (e *Engine) seqShard(b data.Batch, s int) data.Batch {
	tl := b.Seq / e.w.S
	shard := func(xs []int) []int {
		start := len(e.seqBuf)
		for r := 0; r < b.BatchSize; r++ {
			lo := r*b.Seq + s*tl
			e.seqBuf = append(e.seqBuf, xs[lo:lo+tl]...)
		}
		return e.seqBuf[start:]
	}
	return data.Batch{Tokens: shard(b.Tokens), Targets: shard(b.Targets), BatchSize: b.BatchSize, Seq: tl}
}

// Step runs one training iteration over the global batch: each rank
// takes its shard, gradients reduce across cells, and the owners step
// speculatively, leaving the step's verdict pending. With P > 1 a
// single micro-batch degenerates to sequential stages; use StepAccum
// with M >= 2 micro-batches to overlap them 1F1B. Returns the mean loss
// — bit-identical to the (1,1,1) engine's loss for the same R-way row
// decomposition.
func (e *Engine) Step(b data.Batch) (float64, error) {
	return e.StepAccum([]data.Batch{b})
}

// StepAccum runs one optimizer step over several accumulated global
// micro-batches (the §5.2 OOM-mitigation path, and the pipeline's
// natural shape: the M micro-batches fill the 1F1B schedule, so each
// stage idles only the (P-1)/(M+P-1) warmup/cooldown bubble). Every
// global micro-batch shards across the ranks, contributions reduce per
// micro-batch in (micro-batch, group) order, and one optimizer step
// applies at the end.
func (e *Engine) StepAccum(batches []data.Batch) (float64, error) {
	if len(batches) == 0 {
		return 0, nil
	}
	for id := range e.micross {
		e.micross[id] = e.micross[id][:0]
	}
	e.seqBuf = e.seqBuf[:0]
	for _, b := range batches {
		if err := e.split(b); err != nil {
			return 0, err
		}
	}
	if err := e.runStep(); err != nil {
		return 0, err
	}
	loss := e.foldLoss(e.micross[0])
	if e.cfg.Mode == stv.STE {
		// Synchronize-then-execute: resolve before returning, putting
		// validation back on the critical path (the ZeRO-Offload
		// schedule, for comparisons).
		if _, err := e.Flush(); err != nil {
			return loss, err
		}
	}
	return loss, nil
}

// foldLoss folds the ranks' reported losses (e.results) in canonical
// order. Per
// (micro, group), the group's slice loss is the loss rows of its
// final-stage ranks (g, s, P-1) folded in (batch row, shard, position)
// order — ascending global row order within the slice. The R·m slice
// losses then sum in (micro, group) order and divide once, matching one
// rank accumulating the same R-way decomposition. shards
// is any one rank's micro-batches (every rank's have the same shape).
func (e *Engine) foldLoss(shards []data.Batch) float64 {
	w, perRank := e.w, e.results
	var loss float64
	for mi, sh := range shards {
		rowsB, tl := sh.BatchSize, sh.Seq
		for g := 0; g < w.R; g++ {
			var micro float64
			for b := 0; b < rowsB; b++ {
				for s := 0; s < w.S; s++ {
					last := (g*w.S+s)*w.P + w.P - 1
					for t := 0; t < tl; t++ {
						micro += perRank[last].rows[mi][b*tl+t]
					}
				}
			}
			loss += micro / float64(rowsB*tl*w.S)
		}
	}
	return loss / float64(len(shards)*w.R)
}

// Save serializes the training state in the stv checkpoint format, over
// the global bucket order — byte-identical across (R,S,P) shapes on the
// same trajectory, so checkpoints move freely between them.
// It fails once the engine is closed or while a verdict is pending.
func (e *Engine) Save(w io.Writer) error { return e.ctl.Save(w, e.buckets) }

// Load restores state saved by Save (from any shape, or the single-rank
// trainer) into this engine, scattering each bucket to its owner and,
// once the Load has succeeded, republishing the fp16-rounded weights to
// every non-owner replica. A failed Load changes nothing.
func (e *Engine) Load(r io.Reader) error {
	if err := e.ctl.Load(r, e.buckets); err != nil {
		return err
	}
	// Load republished into owner replicas; propagate to the others (the
	// ranks are quiescent between commands).
	for bi := range e.buckets {
		owner := bucketOwner(bi, len(e.ranks))
		for id, rk := range e.ranks {
			if id != owner {
				copyWeights(rk.groups[bi], e.ranks[owner].groups[bi])
			}
		}
	}
	return nil
}
