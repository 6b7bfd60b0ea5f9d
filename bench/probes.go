package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"superoffload"
	"superoffload/internal/act"
	"superoffload/internal/fp16"
	"superoffload/internal/hw"
	"superoffload/internal/model"
	"superoffload/internal/nn"
	"superoffload/internal/optim"
	"superoffload/internal/place"
	"superoffload/internal/stv"
	"superoffload/internal/tensor"
)

// Probes time each layer's exported functions directly, at the shapes
// this workload hands them, after the training loop has finished. They
// answer "how fast is this layer on its own" so that a change in a
// step-level number can be pinned to one of them. Every call sits in a
// probe.<layer>.<fn> span on the bench track.

// prober is one traced pass's probe state.
type prober struct {
	p       *pass
	out     ledger
	dir     string
	reps    int // repetitions of a cheap call
	sweeps  int // ascending sweeps over a store's buckets
	buckets []int
	gpt     *nn.GPT
}

// timed runs f reps times, each inside a span, and returns the sorted
// wall times in seconds.
func (pr *prober) timed(span string, reps int, f func()) []float64 {
	ds := make([]float64, reps)
	for i := range ds {
		sp := pr.p.bench.Begin(span)
		t0 := time.Now()
		f()
		ds[i] = time.Since(t0).Seconds()
		sp.End()
	}
	sort.Float64s(ds)
	return ds
}

// probes runs every layer probe. stepS is the traced pass's median
// step, the base of nn.fwd_bwd_share.
func (p *pass) probes(scratch string, out ledger, stepS float64) error {
	w := p.pc.w
	pr := &prober{p: p, out: out, dir: filepath.Join(scratch, "probe"), reps: 30, sweeps: 6}
	if p.pc.quick {
		pr.reps, pr.sweeps = 3, 2
	}
	if err := os.MkdirAll(pr.dir, 0o755); err != nil {
		return fmt.Errorf("probe directory: %w", err)
	}
	mc := model.Config{Name: "bench", Layers: modelShape.Layers, Hidden: modelShape.Hidden, Heads: modelShape.Heads, Vocab: modelShape.Vocab}
	pr.gpt = nn.NewGPT(mc, modelShape.MaxSeq, tensor.NewRNG(p.pc.seed))
	for _, g := range stv.PartitionGroups(pr.gpt.Params(), bucketElems) {
		pr.buckets = append(pr.buckets, g.TotalSize())
	}

	// One rank's share of a micro-batch: rows split over the R groups,
	// positions over the S sequence ranks.
	rows, seq := w.rows/w.ranks, seqLen/w.seqRanks
	t0 := time.Now()
	pr.tensor(rows * seq)
	pr.fp16()
	pr.optim()
	pr.nn(rows, seq, stepS)
	if err := pr.stores(); err != nil {
		return err
	}
	if err := pr.act(rows * seq); err != nil {
		return err
	}
	pr.place(rows*seq*w.micros, seq)
	if err := pr.core(); err != nil {
		return err
	}
	fmt.Fprintf(p.log, "probes: %.2f s\n", time.Since(t0).Seconds())
	return nil
}

// tensor times the three matmul kernels at the MLP's shape: tokens×H
// against H×4H, and the two transposed forms backward uses.
func (pr *prober) tensor(tokens int) {
	h := modelShape.Hidden
	rng := tensor.NewRNG(pr.p.pc.seed)
	x, wgt, y := tensor.Randn(rng, 1, tokens, h), tensor.Randn(rng, 1, h, 4*h), tensor.Randn(rng, 1, tokens, 4*h)
	dx, dw := tensor.New(tokens, h), tensor.New(h, 4*h)
	gflop := 2 * float64(tokens) * float64(h) * float64(4*h) / 1e9
	reps := 4 * pr.reps
	pr.out.put("tensor.matmul_gflops", gflop/quantile(pr.timed("probe.tensor.MatMulInto", reps, func() { tensor.MatMulInto(y, x, wgt) }), 0.5))
	pr.out.put("tensor.matmul_t_gflops", gflop/quantile(pr.timed("probe.tensor.MatMulTInto", reps, func() { tensor.MatMulTInto(dx, y, wgt) }), 0.5))
	pr.out.put("tensor.t_matmul_gflops", gflop/quantile(pr.timed("probe.tensor.TMatMulInto", reps, func() { tensor.TMatMulInto(dw, x, y) }), 0.5))
}

// fp16 times the casts and the overflow scan over the largest bucket.
func (pr *prober) fp16() {
	n := 0
	for _, b := range pr.buckets {
		n = max(n, b)
	}
	src, half := make([]float32, n), make([]fp16.Num, n)
	for i := range src {
		src[i] = float32(i%977) / 977
	}
	reps := 4 * pr.reps
	gb := func(bytesPerElem int, ds []float64) float64 {
		return float64(bytesPerElem*n) / 1e9 / quantile(ds, 0.5)
	}
	pr.out.put("fp16.cast_gbps", gb(6, pr.timed("probe.fp16.Cast", reps, func() { fp16.Cast(half, src) })))
	pr.out.put("fp16.uncast_gbps", gb(6, pr.timed("probe.fp16.Uncast", reps, func() { fp16.Uncast(src, half) })))
	pr.out.put("fp16.scanbad_gbps", gb(2, pr.timed("probe.fp16.ScanBad", reps, func() { fp16.ScanBad(half) })))
}

// optim times one step's worth of optimizer work over the workload's
// real bucket sizes: Adam, snapshot+restore, and the clip norm.
func (pr *prober) optim() {
	cfg := optim.DefaultConfig()
	var shards []*optim.MixedShard
	var states []*optim.State
	var grads [][]float32
	total := 0
	for _, n := range pr.buckets {
		p := make([]float32, n)
		g := make([]float32, n)
		for i := range p {
			p[i], g[i] = float32(i%613)/613-0.5, float32(i%389)/3890
		}
		shards = append(shards, optim.NewMixedShard(p))
		states = append(states, optim.NewState(n))
		grads = append(grads, g)
		total += n
	}
	t := 0
	adam := pr.timed("probe.optim.GraceAdam", pr.reps, func() {
		t++
		for i, sh := range shards {
			optim.GraceAdam(cfg, sh.Master, grads[i], states[i], t)
		}
	})
	pr.out.put("optim.adam_ms_per_step", 1e3*quantile(adam, 0.5))
	// Adam reads p, g, m, v and writes p, m, v: 28 bytes an element.
	pr.out.put("optim.adam_gbps", 28*float64(total)/1e9/quantile(adam, 0.5))

	snaps := make([]*optim.Snapshot, len(shards))
	pr.out.put("optim.snapshot_restore_ms", 1e3*quantile(pr.timed("probe.optim.SnapshotRestore", pr.reps, func() {
		for i, sh := range shards {
			snaps[i] = optim.TakeSnapshot(snaps[i], sh)
			snaps[i].Restore(sh)
		}
	}), 0.5))
	pr.out.put("optim.clip_norm_ms", 1e3*quantile(pr.timed("probe.optim.GlobalNorm", pr.reps, func() {
		optim.GlobalNorm(grads)
	}), 0.5))
}

// nn times the model's forward and backward on one rank's share of a
// micro-batch, and says what share of the traced step that compute is.
func (pr *prober) nn(rows, seq int, stepS float64) {
	w := pr.p.pc.w
	b := superoffload.NewCorpus(modelShape.Vocab, pr.p.pc.seed+1).NextBatch(rows, seq)
	fwd, bwd := make([]float64, pr.reps), make([]float64, pr.reps)
	for i := range fwd {
		sp := pr.p.bench.Begin("probe.nn.Forward")
		t := time.Now()
		_, cache := pr.gpt.Forward(b.Tokens, b.Targets, b.BatchSize, b.Seq)
		fwd[i] = time.Since(t).Seconds()
		sp.End()
		pr.gpt.Params().ZeroGrads()
		sp = pr.p.bench.Begin("probe.nn.Backward")
		t = time.Now()
		pr.gpt.Backward(cache, 1)
		bwd[i] = time.Since(t).Seconds()
		sp.End()
	}
	f50, b50 := median(fwd), median(bwd)
	pr.out.put("nn.forward_ms_p50", 1e3*f50)
	pr.out.put("nn.backward_ms_p50", 1e3*b50)
	// A rank runs every micro-batch through its 1/P of the layers.
	perStep := (f50 + b50) * float64(w.micros) / float64(w.pipeRanks)
	pr.out.put("nn.fwd_bwd_share", ratio(perStep, stepS))
}

// storeSweeps is what one flash store's sweeps measured.
type storeSweeps struct {
	acquire, release    []float64 // seconds, sorted
	writeMBps, readMBps float64
}

// sweep drives a bucket store the way a trainer does — ascending
// Acquire/Release over every bucket — first with stepping releases
// (every eviction writes back), then with clean ones (reads only).
func (pr *prober) sweep(layer string, st stv.BucketStore, tel func() stv.StoreTelemetry) storeSweeps {
	for i, n := range pr.buckets {
		st.Seed(i, make([]float32, n))
	}
	var out storeSweeps
	var acquire []float64
	// run does the sweeps with one release mode and returns their wall
	// time and the store's traffic over them.
	run := func(mode stv.ReleaseMode) (wallS float64, d stv.StoreTelemetry) {
		before := tel()
		t0 := time.Now()
		for s := 0; s < pr.sweeps; s++ {
			for i := range pr.buckets {
				sp := pr.p.bench.Begin("probe." + layer + ".Acquire")
				t := time.Now()
				st.Acquire(i)
				acquire = append(acquire, time.Since(t).Seconds())
				sp.End()
				sp = pr.p.bench.Begin("probe." + layer + ".Release")
				t = time.Now()
				st.Release(i, mode)
				out.release = append(out.release, time.Since(t).Seconds())
				sp.End()
			}
		}
		return time.Since(t0).Seconds(), tel().Sub(before)
	}
	wallS, d := run(stv.ReleaseStep)
	out.writeMBps = float64(d.BytesWritten) / 1e6 / wallS
	wallS, d = run(stv.ReleaseClean)
	out.readMBps = float64(d.BytesRead) / 1e6 / wallS
	sort.Float64s(acquire)
	sort.Float64s(out.release)
	out.acquire = acquire
	return out
}

// stores runs the same sweeps over the single-lane store and the
// multi-path one (without a cache, then with one that holds every
// bucket), so the two can be read side by side.
func (pr *prober) stores() error {
	nv, err := stv.NewNVMeStore(stv.NVMeStoreConfig{Dir: pr.dir, ResidentBuckets: 2})
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	s := pr.sweep("nvmestore", nv, nv.Telemetry)
	if err := nv.Close(); err != nil {
		return fmt.Errorf("probe: closing NVMe store: %w", err)
	}
	pr.out.put("nvmestore.acquire_us_p50", 1e6*quantile(s.acquire, 0.5))
	pr.out.put("nvmestore.acquire_us_p90", 1e6*quantile(s.acquire, 0.9))
	pr.out.put("nvmestore.release_us_p50", 1e6*quantile(s.release, 0.5))
	pr.out.put("nvmestore.write_sweep_mbps", s.writeMBps)
	pr.out.put("nvmestore.read_sweep_mbps", s.readMBps)

	mlp := func(cache int) (storeSweeps, error) {
		st, err := stv.NewMLPStore(stv.MLPStoreConfig{
			Dir: pr.dir, Paths: hw.NodeIOPaths(2), ResidentBuckets: 2, CacheBuckets: cache,
		})
		if err != nil {
			return storeSweeps{}, fmt.Errorf("probe: %w", err)
		}
		s := pr.sweep("mlpstore", st, func() stv.StoreTelemetry { return st.Telemetry().StoreTelemetry })
		if err := st.Close(); err != nil {
			return storeSweeps{}, fmt.Errorf("probe: closing MLP store: %w", err)
		}
		return s, nil
	}
	if s, err = mlp(0); err != nil {
		return err
	}
	pr.out.put("mlpstore.acquire_us_p50", 1e6*quantile(s.acquire, 0.5))
	pr.out.put("mlpstore.release_us_p50", 1e6*quantile(s.release, 0.5))
	pr.out.put("mlpstore.write_sweep_mbps", s.writeMBps)
	pr.out.put("mlpstore.read_sweep_mbps", s.readMBps)
	if s, err = mlp(2 * len(pr.buckets)); err != nil {
		return err
	}
	pr.out.put("mlpstore.cached_acquire_us_p50", 1e6*quantile(s.acquire, 0.5))
	return nil
}

// act runs forward-stash / backward-fetch passes over an 8-layer stack
// with window 2, on the DRAM tier and the NVMe tier.
func (pr *prober) act(tokens int) error {
	const layers, bufsPerLayer = 8, 4
	h := modelShape.Hidden
	bufs := make([][][]float32, layers)
	var layerBytes int
	for l := range bufs {
		bufs[l] = make([][]float32, bufsPerLayer)
		for i := range bufs[l] {
			bufs[l][i] = make([]float32, tokens*h)
			layerBytes += 4 * tokens * h
		}
	}
	layerBytes /= layers
	run := func(tier act.Tier) (stash, fetch []float64, mbps float64, err error) {
		st, err := act.NewStore(act.Config{
			Tier: tier, Dir: pr.dir, ResidentLayers: 2,
			Hidden: h, Params: int64(pr.gpt.NumParams()),
		})
		if err != nil {
			return nil, nil, 0, fmt.Errorf("probe: %w", err)
		}
		t0 := time.Now()
		for s := 0; s < pr.sweeps; s++ {
			st.BeginPass(layers, tokens, seqLen)
			for l := 0; l < layers; l++ {
				sp := pr.p.bench.Begin("probe.act.StashLayer")
				t := time.Now()
				st.StashLayer(l, bufs[l])
				stash = append(stash, time.Since(t).Seconds())
				sp.End()
			}
			for l := layers - 1; l >= 0; l-- {
				sp := pr.p.bench.Begin("probe.act.FetchLayer")
				t := time.Now()
				st.FetchLayer(l)
				fetch = append(fetch, time.Since(t).Seconds())
				sp.End()
			}
		}
		wall := time.Since(t0).Seconds()
		tel := st.Telemetry()
		if err := st.Close(); err != nil {
			return nil, nil, 0, fmt.Errorf("probe: closing activation store: %w", err)
		}
		sort.Float64s(stash)
		sort.Float64s(fetch)
		return stash, fetch, float64(tel.BytesSpilled+tel.BytesFetched) / 1e6 / wall, nil
	}
	_, _, dram, err := run(act.DRAM)
	if err != nil {
		return err
	}
	stash, fetch, nvme, err := run(act.NVMe)
	if err != nil {
		return err
	}
	pr.out.put("act.dram_roundtrip_mbps", dram)
	pr.out.put("act.nvme_roundtrip_mbps", nvme)
	pr.out.put("act.stash_us_p50", 1e6*quantile(stash, 0.5))
	pr.out.put("act.fetch_us_p50", 1e6*quantile(fetch, 0.5))
	return nil
}

// place times the virtual-clock step model and the placement search
// over the workload's own partition.
func (pr *prober) place(tokens, seq int) {
	spec := hw.DefaultSuperchip()
	shape := place.Shape{Tokens: tokens, Hidden: modelShape.Hidden, Seq: seq, Params: int64(pr.gpt.NumParams())}
	work := place.GPUTail(len(pr.buckets), 4).Work(pr.buckets)
	pr.out.put("place.steptimes_us", 1e6*quantile(pr.timed("probe.place.StepTimes", 10*pr.reps, func() {
		place.StepTimes(spec, work, len(pr.buckets), shape)
	}), 0.5))
	pr.out.put("place.auto_ms", 1e3*quantile(pr.timed("probe.place.Auto", pr.reps, func() {
		place.Auto(spec, pr.buckets, shape, 0)
	}), 0.5))
}

// core sizes the workload's paper-scale twin with the analytic planner.
func (pr *prober) core() error {
	var res superoffload.PlanResult
	var err error
	ds := pr.timed("probe.core.Plan", 3, func() {
		res, err = superoffload.Plan(pr.p.pc.w.twin)
	})
	if err != nil {
		return fmt.Errorf("probe: planning %+v: %w", pr.p.pc.w.twin, err)
	}
	if !res.Fits {
		return fmt.Errorf("probe: twin %+v does not fit: %s", pr.p.pc.w.twin, res.OOMReason)
	}
	pr.out.put("core.plan_ms", 1e3*quantile(ds, 0.5))
	pr.out.put("core.twin_tflops", res.TFLOPS)
	pr.out.put("core.twin_gpu_busy_frac", 1-res.GPUIdleFrac)
	return nil
}
