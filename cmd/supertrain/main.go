// Command supertrain trains a real (small) GPT with the SuperOffload
// engine: speculative per-bucket Adam steps on CPU-resident fp32 master
// weights, background validation, and exact rollback. It demonstrates the
// paper's Fig. 1 enablement and Fig. 14 behaviour on real numerics; with
// -ranks > 1 the multi-superchip data-parallel engine with ZeRO-sharded
// optimizer state (the 2× and 4× GH200 configurations); with
// -seq-ranks > 1 the SuperOffload-Ulysses sequence-parallel engine
// (§4.7): sequence-sharded ranks, two attention all-to-alls per layer,
// and a deterministic weight-gradient ring; and with both, the hybrid
// R×S mesh — data parallelism across superchip groups, sequence
// parallelism within each group, the paper's multi-superchip evaluation
// shape. -pipe-ranks > 1 adds the third axis: the transformer depth
// splits over P pipeline stages per (group, sequence) column, scheduled
// 1F1B — the full R×S×P 3-D engine. -placement enables the §4.3
// adaptive weight-update split (a GPU-retained bucket tail updating
// synchronously while the rest flows to the CPU Adam), timed by the
// virtual-clock superchip executor.
//
// Usage:
//
//	supertrain -steps 300 -layers 2 -hidden 64 -mode stv
//	supertrain -steps 300 -ranks 4 -batch 8
//	supertrain -steps 300 -seq-ranks 4 -seq 32 -heads 4
//	supertrain -steps 300 -ranks 2 -seq-ranks 2 -batch 8 -seq 32 -heads 4
//	supertrain -steps 300 -ranks 2 -seq-ranks 2 -pipe-ranks 2 -layers 4 -batch 8 -seq 32 -heads 4
//	supertrain -steps 300 -placement auto -bucket-elems 16384
//	supertrain -steps 100 -json > stats.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"

	"superoffload"
	"superoffload/internal/hw"
	"superoffload/internal/stv"
)

// engine is the surface of superoffload.Engine the command drives (an
// interface so the report tests can substitute a fake).
type engine interface {
	Step(b superoffload.Batch) (float64, error)
	Flush() error
	NumBuckets() int
	Close() error
	superoffload.TelemetrySource
}

func main() {
	if err := run(); err != nil {
		var ue usageErr
		if errors.As(err, &ue) {
			// A flag-validation failure reads as a usage problem — message
			// plus the full usage text, exit 2 — rather than a runtime
			// fault deep in engine init.
			fmt.Fprintf(flag.CommandLine.Output(), "supertrain: %s\n\n", ue.msg)
			flag.Usage()
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// usageErr marks a flag-validation failure so main can render it as a
// usage message. Keeping it an ordinary error (no printing, no exit in
// validate) is what makes the validation rules unit-testable.
type usageErr struct{ msg string }

func (e usageErr) Error() string { return "supertrain: " + e.msg }

// usageError builds a usageErr from a format string.
func usageError(format string, args ...any) error {
	return usageErr{msg: fmt.Sprintf(format, args...)}
}

// trainFlags carries the parsed flag values by name, so every
// validation check reads the field it means (a positional int list
// would make argument swaps invisible to the compiler).
type trainFlags struct {
	steps, layers, hidden, heads, vocab   int
	batch, seq, ranks, seqRanks, pipeRank int
	resident, bucketElems, gpuBuckets     int
	actResident                           int
	ioPaths, dramCache                    int
	mode, offload, placement              string
	actOffload                            string
}

// validate rejects incompatible flag combinations before any engine
// construction. Divisibility rules: -batch must divide by -ranks (rows
// split across data-parallel groups), -seq by -seq-ranks (positions
// split within a group), -hidden by the effective head count, and the
// head count by -seq-ranks (heads shard across sequence ranks);
// -pipe-ranks needs at least that many -layers (each pipeline stage
// owns at least one transformer block).
func (f trainFlags) validate() error {
	if f.steps < 1 {
		return usageError("-steps must be >= 1, got %d", f.steps)
	}
	if f.layers < 1 || f.hidden < 8 || f.vocab < 2 {
		return usageError("model too small: need -layers >= 1, -hidden >= 8, -vocab >= 2 (got %d, %d, %d)", f.layers, f.hidden, f.vocab)
	}
	if f.batch < 1 || f.seq < 1 {
		return usageError("-batch and -seq must be >= 1, got %d and %d", f.batch, f.seq)
	}
	if f.mode != "stv" && f.mode != "ste" {
		return usageError("unknown -mode %q (want stv or ste)", f.mode)
	}
	if f.offload != "dram" && f.offload != "nvme" {
		return usageError("unknown -offload %q (want dram or nvme)", f.offload)
	}
	switch f.actOffload {
	case "", "dram", "nvme":
	default:
		return usageError("unknown -act-offload %q (want dram or nvme)", f.actOffload)
	}
	if f.actResident < hw.ActMinResidentLayers {
		return usageError("-act-resident-layers must be >= %d (the activation store's minimum write-behind window), got %d", hw.ActMinResidentLayers, f.actResident)
	}
	switch f.placement {
	case "", "auto", "cpu", "gpu":
	default:
		return usageError("unknown -placement %q (want auto, cpu, or gpu)", f.placement)
	}
	if f.gpuBuckets < 0 {
		return usageError("-gpu-buckets must be >= 0, got %d", f.gpuBuckets)
	}
	if f.gpuBuckets > 0 && f.placement != "auto" {
		return usageError("-gpu-buckets requires -placement auto (got -placement %q)", f.placement)
	}
	if f.resident < stv.MinResidentBuckets {
		return usageError("-resident-buckets must be >= %d (the flash store's minimum window), got %d", stv.MinResidentBuckets, f.resident)
	}
	if f.ioPaths < 1 {
		return usageError("-io-paths must be >= 1, got %d", f.ioPaths)
	}
	if f.dramCache < 0 {
		return usageError("-dram-cache-buckets must be >= 0, got %d", f.dramCache)
	}
	if (f.ioPaths > 1 || f.dramCache > 0) && f.offload != "nvme" {
		return usageError("-io-paths/-dram-cache-buckets configure the flash tier and require -offload nvme (got -offload %q)", f.offload)
	}
	if f.bucketElems < 0 {
		return usageError("-bucket-elems must be >= 0, got %d", f.bucketElems)
	}
	if f.ranks < 1 {
		return usageError("-ranks must be >= 1, got %d", f.ranks)
	}
	if f.seqRanks < 1 {
		return usageError("-seq-ranks must be >= 1, got %d", f.seqRanks)
	}
	if f.pipeRank < 1 {
		return usageError("-pipe-ranks must be >= 1, got %d", f.pipeRank)
	}
	if f.layers < f.pipeRank {
		return usageError("-layers %d fewer than -pipe-ranks %d (each pipeline stage needs at least one transformer block)", f.layers, f.pipeRank)
	}
	if f.heads < 0 {
		return usageError("-heads must be >= 0, got %d", f.heads)
	}
	// Mirror NewModel's defaulting so the divisibility checks see the
	// head count the engine will actually use.
	effHeads := f.heads
	if effHeads == 0 {
		effHeads = f.hidden / 64
		if effHeads < 1 {
			effHeads = 1
		}
	}
	if f.hidden%effHeads != 0 {
		return usageError("-hidden %d not divisible by %d heads", f.hidden, effHeads)
	}
	if effHeads%f.seqRanks != 0 {
		return usageError("%d attention heads not divisible by -seq-ranks %d", effHeads, f.seqRanks)
	}
	if f.batch%f.ranks != 0 {
		return usageError("-batch %d not divisible by -ranks %d", f.batch, f.ranks)
	}
	if f.seq%f.seqRanks != 0 {
		return usageError("-seq %d not divisible by -seq-ranks %d", f.seq, f.seqRanks)
	}
	return nil
}

// jsonReport is the machine-readable run summary -json emits on stdout:
// final stats plus whatever telemetry the selected engine produced.
// MetricsV1 is the unified metrics snapshot (every registered
// superoffload_* sample by name); the _v1 suffix versions the key so
// consumers can detect naming-scheme changes.
type jsonReport struct {
	Params      int                              `json:"params"`
	Buckets     int                              `json:"buckets"`
	Mode        string                           `json:"mode"`
	Parallelism string                           `json:"parallelism"`
	Steps       int                              `json:"steps"`
	FinalLoss   float64                          `json:"final_loss"`
	Stats       superoffload.Stats               `json:"stats"`
	Comm        *superoffload.SPCommStats        `json:"comm,omitempty"`
	Store       *superoffload.StoreTelemetry     `json:"store,omitempty"`
	Placement   *superoffload.PlacementTelemetry `json:"placement,omitempty"`
	Act         *superoffload.ActTelemetry       `json:"act,omitempty"`
	MetricsV1   map[string]float64               `json:"metrics_v1,omitempty"`
}

func run() (err error) {
	steps := flag.Int("steps", 300, "training iterations")
	layers := flag.Int("layers", 2, "transformer layers")
	hidden := flag.Int("hidden", 64, "hidden size")
	heads := flag.Int("heads", 0, "attention heads (0: hidden/64, min 1; must divide hidden and -seq-ranks must divide it)")
	vocab := flag.Int("vocab", 128, "vocabulary size")
	batch := flag.Int("batch", 4, "global batch size (must divide by -ranks)")
	seq := flag.Int("seq", 16, "sequence length (must divide by -seq-ranks)")
	mode := flag.String("mode", "stv", "schedule: stv (speculative) or ste (synchronous)")
	clip := flag.Float64("clip", 4.0, "global gradient-norm clip (0 disables)")
	ranks := flag.Int("ranks", 1, "simulated superchip ranks (data parallelism; with -seq-ranks > 1, the mesh's group count)")
	seqRanks := flag.Int("seq-ranks", 1, "simulated superchip ranks (Ulysses sequence parallelism; with -ranks > 1, per-group)")
	pipeRanks := flag.Int("pipe-ranks", 1, "simulated superchip ranks (pipeline parallelism: 1F1B stages per column; -layers must be >= this)")
	seed := flag.Uint64("seed", 42, "initialization seed")
	offload := flag.String("offload", "dram", "optimizer-state tier: dram (resident) or nvme (file-backed window)")
	offloadDir := flag.String("offload-dir", "", "directory for nvme backing files (default: system temp)")
	resident := flag.Int("resident-buckets", stv.MinResidentBuckets, "nvme store resident-bucket window (the default is the floor)")
	ioPaths := flag.Int("io-paths", 1, "independently scheduled nvme flash paths: >1 stripes bucket records across per-path files (multi-path store; requires -offload nvme)")
	dramCache := flag.Int("dram-cache-buckets", 0, "DRAM cache tier in front of the nvme store, in buckets (0 disables; requires -offload nvme)")
	actOffload := flag.String("act-offload", "", "activation spill tier: dram (host cache over C2C), nvme (file-backed), or empty (activations stay resident)")
	actDir := flag.String("act-dir", "", "directory for nvme activation backing files (default: system temp)")
	actResident := flag.Int("act-resident-layers", hw.ActMinResidentLayers, "activation write-behind window: layers kept resident with -act-offload (the default is the floor)")
	bucketElems := flag.Int("bucket-elems", 0, "per-bucket element budget (0: the 64 MB default; shrink so toy models split into several buckets)")
	placement := flag.String("placement", "", "bucket placement: auto (GPU-retained tail, §4.3), cpu, gpu, or empty (homogeneous)")
	gpuBuckets := flag.Int("gpu-buckets", 0, "pin the GPU-retained bucket tail in -placement auto (0: derive by grid search)")
	jsonOut := flag.Bool("json", false, "emit final stats and telemetry as JSON on stdout (suppresses the human progress log)")
	traceOut := flag.String("trace", "", "write the run's Chrome trace-event JSON to this file (open in Perfetto or chrome://tracing; one track per rank, store worker, and comm plane)")
	obsAddr := flag.String("obs-addr", "", "serve /metrics, /trace, and /debug/pprof on this address during the run (e.g. localhost:6060; the bound address is logged)")
	flag.Parse()

	if err := (trainFlags{
		steps: *steps, layers: *layers, hidden: *hidden, heads: *heads, vocab: *vocab,
		batch: *batch, seq: *seq, ranks: *ranks, seqRanks: *seqRanks, pipeRank: *pipeRanks,
		resident: *resident, bucketElems: *bucketElems, gpuBuckets: *gpuBuckets,
		actResident: *actResident,
		ioPaths:     *ioPaths, dramCache: *dramCache,
		mode: *mode, offload: *offload, placement: *placement,
		actOffload: *actOffload,
	}).validate(); err != nil {
		return err
	}

	model, err := superoffload.NewModel(superoffload.ModelConfig{
		Layers: *layers, Hidden: *hidden, Heads: *heads, Vocab: *vocab, MaxSeq: *seq,
	}, *seed)
	if err != nil {
		return err
	}
	cfg := superoffload.DefaultOptimizer()
	cfg.ClipNorm = *clip
	cfg.Synchronous = *mode == "ste"
	cfg.LossScaling = true
	cfg.BucketElems = *bucketElems
	cfg.Offload = superoffload.OffloadConfig{
		Backend: *offload, Dir: *offloadDir, ResidentBuckets: *resident,
		IOPaths: *ioPaths, CacheBuckets: *dramCache,
	}
	cfg.Placement = superoffload.PlacementConfig{
		Mode: *placement, GPUBuckets: *gpuBuckets, Batch: *batch, Seq: *seq,
	}
	cfg.Activation = superoffload.ActivationConfig{
		Offload: *actOffload, Dir: *actDir, ResidentLayers: *actResident,
	}
	// Tracing turns on when anything consumes it: a trace file or the
	// live /trace endpoint. Nil otherwise — the engines' zero-cost mode.
	var tracer *superoffload.Tracer
	if *traceOut != "" || *obsAddr != "" {
		tracer = superoffload.NewTracer()
	}
	cfg.Tracer = tracer

	var eng *superoffload.Engine
	parallelism := "1 rank"
	if *ranks == 1 && *seqRanks == 1 && *pipeRanks == 1 {
		eng, err = superoffload.Init(model, cfg)
	} else {
		eng, err = superoffload.InitMesh(model, cfg, superoffload.MeshConfig{
			Ranks: *ranks, SeqRanks: *seqRanks, PipeRanks: *pipeRanks,
		})
		switch {
		case *pipeRanks > 1:
			parallelism = fmt.Sprintf("%d×%d×%d 3-D engine (%d DP groups × %d SP ranks × %d pipeline stages)",
				*ranks, *seqRanks, *pipeRanks, *ranks, *seqRanks, *pipeRanks)
		case *ranks > 1 && *seqRanks > 1:
			parallelism = fmt.Sprintf("%d×%d mesh (%d DP groups × %d SP ranks)", *ranks, *seqRanks, *ranks, *seqRanks)
		case *ranks > 1:
			parallelism = fmt.Sprintf("%d DP rank(s)", *ranks)
		default:
			parallelism = fmt.Sprintf("%d SP rank(s)", *seqRanks)
		}
	}
	if err != nil {
		return err
	}
	// Close surfaces latched NVMe background-IO failures; dropping its
	// error would let a corrupted-run signal vanish silently, so it joins
	// the command's exit status.
	defer func() {
		if cerr := eng.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing engine: %w", cerr)
		}
	}()

	reg := superoffload.NewMetricsRegistry()
	superoffload.RegisterMetrics(reg, eng)
	if *obsAddr != "" {
		ln, lerr := net.Listen("tcp", *obsAddr)
		if lerr != nil {
			return fmt.Errorf("observability listener: %w", lerr)
		}
		defer ln.Close()
		// Stderr so -json runs keep stdout machine-readable.
		fmt.Fprintf(os.Stderr, "supertrain: observability on http://%s (/metrics, /trace, /debug/pprof)\n", ln.Addr())
		srv := &http.Server{Handler: superoffload.ObsHandler(reg, tracer)}
		defer srv.Close()
		go srv.Serve(ln)
	}

	if !*jsonOut {
		fmt.Printf("supertrain: %d params in %d buckets, %s schedule, %s, %s offload\n",
			model.NumParams(), eng.NumBuckets(), *mode, parallelism, *offload)
	}

	corpus := superoffload.NewCorpus(*vocab, *seed+1)
	var loss float64
	for i := 1; i <= *steps; i++ {
		loss, err = eng.Step(corpus.NextBatch(*batch, *seq))
		if err != nil {
			return err
		}
		if !*jsonOut && i%(max(1, *steps/20)) == 0 {
			fmt.Printf("step %4d  loss %.4f\n", i, loss)
		}
	}
	if err := eng.Flush(); err != nil {
		return err
	}
	if *traceOut != "" {
		if terr := writeTrace(tracer, *traceOut); terr != nil {
			return terr
		}
		if !*jsonOut {
			fmt.Printf("trace: %d events written to %s\n", tracer.Len(), *traceOut)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(buildReport(eng, reg, model.NumParams(), *mode, parallelism, *steps, loss))
	}
	st := eng.Stats()
	fmt.Printf("done: %d steps, %d commits, %d clip-rollbacks, %d skip-rollbacks, %d forward redos\n",
		st.Steps, st.Commits, st.ClipRolls, st.SkipRolls, st.Redos)
	printLinks(os.Stdout, eng.CommStats(), *steps)
	if tel, ok := eng.StoreTelemetry(); ok {
		n := float64(*steps)
		fmt.Printf("nvme tier: %d reads (%.1f MB), %d writes (%.1f MB)\n",
			tel.Reads, float64(tel.BytesRead)/1e6, tel.Writes, float64(tel.BytesWritten)/1e6)
		fmt.Printf("modeled step time: %.3f ms pipelined vs %.3f ms serialized (prefetch overlap hides %.0f%%)\n",
			1e3*tel.PipelinedSeconds()/n, 1e3*tel.SerializedSeconds()/n,
			100*(1-tel.PipelinedSeconds()/tel.SerializedSeconds()))
	}
	if tel, ok := eng.PlacementTelemetry(); ok && tel.Steps > 0 {
		n := float64(tel.Steps)
		fmt.Printf("placement: %d gpu / %d cpu / %d nvme buckets\n",
			tel.Tiers[0].Buckets, tel.Tiers[1].Buckets, tel.Tiers[2].Buckets)
		fmt.Printf("superchip step: %.3f ms pipelined vs %.3f ms serialized (overlap hides %.0f%%)\n",
			1e3*tel.PipelinedSeconds/n, 1e3*tel.SerializedSeconds/n, 100*tel.HiddenFraction())
	}
	if tel, ok := eng.ActTelemetry(); ok && tel.Passes > 0 {
		n := float64(tel.Passes)
		fmt.Printf("activation tier: %.1f spills/pass (%.1f MB), %.1f fetches/pass (%.1f MB)\n",
			float64(tel.Spills)/n, float64(tel.BytesSpilled)/1e6/n,
			float64(tel.Fetches)/n, float64(tel.BytesFetched)/1e6/n)
		fmt.Printf("activation step: %.3f ms pipelined vs %.3f ms serialized (prefetch overlap hides %.0f%%)\n",
			1e3*tel.PipelinedSeconds()/n, 1e3*tel.SerializedSeconds()/n,
			100*(1-tel.PipelinedSeconds()/tel.SerializedSeconds()))
	}
	return nil
}

// printLinks writes one line per link family that carried traffic: the
// Ulysses all-to-alls and ring of a sequence axis, and the stage-boundary
// sends of a pipeline axis. A link-less shape prints nothing.
func printLinks(w io.Writer, cs superoffload.SPCommStats, steps int) {
	n := float64(steps)
	if cs.A2APayloads > 0 || cs.RingHops > 0 {
		fmt.Fprintf(w, "ulysses links: %.1f all-to-all payloads/step (%.1f MB/step), %.1f ring hops/step (%.1f MB/step)\n",
			float64(cs.A2APayloads)/n, float64(cs.A2AFloats)*4/1e6/n,
			float64(cs.RingHops)/n, float64(cs.RingFloats)*4/1e6/n)
	}
	if cs.StageSends > 0 {
		fmt.Fprintf(w, "pipeline links: %.1f stage-boundary sends/step (%.2f MB/step)\n",
			float64(cs.StageSends)/n, float64(cs.StageFloats)*4/1e6/n)
	}
}

// writeTrace exports the tracer's events as a Chrome trace-event JSON
// file.
func writeTrace(tracer *superoffload.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := tracer.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing trace: %w", err)
	}
	return nil
}

// buildReport assembles the machine-readable -json run summary (a
// function of its own so tests can lock the marshaled shape).
func buildReport(eng engine, reg *superoffload.MetricsRegistry, params int, mode, parallelism string, steps int, finalLoss float64) jsonReport {
	rep := jsonReport{
		Params:      params,
		Buckets:     eng.NumBuckets(),
		Mode:        mode,
		Parallelism: parallelism,
		Steps:       steps,
		FinalLoss:   finalLoss,
		Stats:       eng.Stats(),
	}
	// A link-less shape (single rank, pure data parallel) reports no
	// comm block.
	if cs := eng.CommStats(); cs != (superoffload.SPCommStats{}) {
		rep.Comm = &cs
	}
	if tel, ok := eng.StoreTelemetry(); ok {
		rep.Store = &tel
	}
	if tel, ok := eng.PlacementTelemetry(); ok {
		rep.Placement = &tel
	}
	if tel, ok := eng.ActTelemetry(); ok {
		rep.Act = &tel
	}
	if reg != nil {
		samples := reg.Gather()
		rep.MetricsV1 = make(map[string]float64, len(samples))
		for _, s := range samples {
			rep.MetricsV1[s.Name] = s.Value
		}
	}
	return rep
}
