// Command supertrain trains a real (small) GPT with the SuperOffload
// engine: speculative per-bucket Adam steps on CPU-resident fp32 master
// weights, validation deferred to the next step, and exact rollback. It demonstrates the
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
	"slices"
	"strings"

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

// flagUsage is the usageErr for a flag holding value, which should be want.
func flagUsage(flag string, value any, want string) error {
	return usageErr{msg: fmt.Sprintf("%s %#v: want %s", flag, value, want)}
}

// trainFlags holds the parsed flags; run binds each flag to its field.
type trainFlags struct {
	steps, layers, hidden, heads, vocab   int
	batch, seq, ranks, seqRanks, pipeRank int
	resident, bucketElems, gpuBuckets     int
	actResident                           int
	ioPaths, dramCache                    int
	clip                                  float64
	seed                                  uint64
	mode, offload, placement              string
	actOffload, offloadDir, actDir        string
}

// validate rejects what only the flags can get wrong: the enumerated
// string flags, a -steps below 1 (no facade type holds it), and a 0 in a
// count flag that the facade would read as "pick the default". Every
// other rule is the facade's, and start turns its *ConfigError into a
// usage message naming the flag.
func (f trainFlags) validate() error {
	for _, e := range []struct {
		flag, value string
		want        []string
	}{
		{"-mode", f.mode, []string{"stv", "ste"}},
		{"-offload", f.offload, []string{"dram", "nvme"}},
		{"-act-offload", f.actOffload, []string{"", "dram", "nvme"}},
		{"-placement", f.placement, []string{"", "auto", "cpu", "gpu"}},
	} {
		if !slices.Contains(e.want, e.value) {
			return flagUsage(e.flag, e.value, fmt.Sprintf("one of %q", e.want))
		}
	}
	for _, c := range []struct {
		flag  string
		value int
	}{
		{"-steps", f.steps}, {"-batch", f.batch}, {"-seq", f.seq}, {"-ranks", f.ranks}, {"-seq-ranks", f.seqRanks},
		{"-pipe-ranks", f.pipeRank}, {"-io-paths", f.ioPaths}, {"-resident-buckets", f.resident},
		{"-act-resident-layers", f.actResident},
	} {
		if c.value < 1 {
			return flagUsage(c.flag, c.value, ">= 1")
		}
	}
	return nil
}

// fieldFlags names the flag behind each facade field the command sets.
var fieldFlags = map[string]string{
	"ModelConfig.Layers": "-layers", "ModelConfig.Hidden": "-hidden", "ModelConfig.Heads": "-heads",
	"ModelConfig.Vocab": "-vocab", "ModelConfig.MaxSeq": "-seq",
	"OptimizerConfig.ClipNorm": "-clip", "OptimizerConfig.BucketElems": "-bucket-elems",
	"OptimizerConfig.Offload.Backend": "-offload", "OptimizerConfig.Offload.ResidentBuckets": "-resident-buckets",
	"OptimizerConfig.Offload.IOPaths": "-io-paths", "OptimizerConfig.Offload.CacheBuckets": "-dram-cache-buckets",
	"OptimizerConfig.Placement.Mode": "-placement", "OptimizerConfig.Placement.GPUBuckets": "-gpu-buckets",
	"OptimizerConfig.Placement.Batch": "-batch", "OptimizerConfig.Placement.Seq": "-seq",
	"OptimizerConfig.Activation.Offload": "-act-offload", "OptimizerConfig.Activation.ResidentLayers": "-act-resident-layers",
	"MeshConfig.Ranks": "-ranks", "MeshConfig.SeqRanks": "-seq-ranks", "MeshConfig.PipeRanks": "-pipe-ranks",
	"Batch.BatchSize": "-batch", "Batch.Seq": "-seq",
}

// fieldsToFlags rewrites the field paths in a ConfigError's Want as flags.
var fieldsToFlags = func() *strings.Replacer {
	var pairs []string
	for field, flag := range fieldFlags {
		pairs = append(pairs, field, flag)
	}
	return strings.NewReplacer(pairs...)
}()

// flagError turns a *superoffload.ConfigError on a field a flag sets
// into that flag's usageErr; any other error passes through.
func flagError(err error) error {
	var ce *superoffload.ConfigError
	if errors.As(err, &ce) {
		if flag, ok := fieldFlags[ce.Field]; ok {
			return flagUsage(flag, ce.Value, fieldsToFlags.Replace(ce.Want))
		}
	}
	return err
}

// start validates the flags and builds the model and the engine they
// describe, the single-rank one for a 1×1×1 shape; a configuration the
// facade refuses comes back as a usageErr naming the flag.
func (f trainFlags) start(tracer *superoffload.Tracer) (*superoffload.Model, *superoffload.Engine, error) {
	if err := f.validate(); err != nil {
		return nil, nil, err
	}
	cfg := superoffload.DefaultOptimizer()
	cfg.ClipNorm = f.clip
	cfg.Synchronous = f.mode == "ste"
	cfg.LossScaling = true
	cfg.BucketElems = f.bucketElems
	cfg.Offload = superoffload.OffloadConfig{
		Backend: f.offload, Dir: f.offloadDir, ResidentBuckets: f.resident,
		IOPaths: f.ioPaths, CacheBuckets: f.dramCache,
	}
	cfg.Placement = superoffload.PlacementConfig{
		Mode: f.placement, GPUBuckets: f.gpuBuckets, Batch: f.batch, Seq: f.seq,
	}
	cfg.Activation = superoffload.ActivationConfig{
		Offload: f.actOffload, Dir: f.actDir, ResidentLayers: f.actResident,
	}
	cfg.Tracer = tracer
	model, err := superoffload.NewModel(superoffload.ModelConfig{
		Layers: f.layers, Hidden: f.hidden, Heads: f.heads, Vocab: f.vocab, MaxSeq: f.seq,
	}, f.seed)
	if err != nil {
		return nil, nil, flagError(err)
	}
	var eng *superoffload.Engine
	if f.ranks == 1 && f.seqRanks == 1 && f.pipeRank == 1 {
		eng, err = superoffload.Init(model, cfg)
	} else {
		eng, err = superoffload.InitMesh(model, cfg, superoffload.MeshConfig{Ranks: f.ranks, SeqRanks: f.seqRanks, PipeRanks: f.pipeRank})
	}
	if err != nil {
		return nil, nil, flagError(err)
	}
	return model, eng, nil
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
	var f trainFlags
	flag.IntVar(&f.steps, "steps", 300, "training iterations")
	flag.IntVar(&f.layers, "layers", 2, "transformer layers")
	flag.IntVar(&f.hidden, "hidden", 64, "hidden size")
	flag.IntVar(&f.heads, "heads", 0, "attention heads (0: hidden/64, min 1; must divide hidden and -seq-ranks must divide it)")
	flag.IntVar(&f.vocab, "vocab", 128, "vocabulary size")
	flag.IntVar(&f.batch, "batch", 4, "global batch size (must divide by -ranks)")
	flag.IntVar(&f.seq, "seq", 16, "sequence length (must divide by -seq-ranks)")
	flag.StringVar(&f.mode, "mode", "stv", "schedule: stv (speculative) or ste (synchronous)")
	flag.Float64Var(&f.clip, "clip", 4.0, "global gradient-norm clip (0 disables)")
	flag.IntVar(&f.ranks, "ranks", 1, "simulated superchip ranks (data parallelism; with -seq-ranks > 1, the mesh's group count)")
	flag.IntVar(&f.seqRanks, "seq-ranks", 1, "simulated superchip ranks (Ulysses sequence parallelism; with -ranks > 1, per-group)")
	flag.IntVar(&f.pipeRank, "pipe-ranks", 1, "simulated superchip ranks (pipeline parallelism: 1F1B stages per column; -layers must be >= this)")
	flag.Uint64Var(&f.seed, "seed", 42, "initialization seed")
	flag.StringVar(&f.offload, "offload", "dram", "optimizer-state tier: dram (resident) or nvme (file-backed window)")
	flag.StringVar(&f.offloadDir, "offload-dir", "", "directory for nvme backing files (default: system temp)")
	flag.IntVar(&f.resident, "resident-buckets", stv.MinResidentBuckets, "nvme store resident-bucket window (the default is the floor)")
	flag.IntVar(&f.ioPaths, "io-paths", 1, "independently scheduled nvme flash paths: >1 stripes bucket records across per-path files (multi-path store; requires -offload nvme)")
	flag.IntVar(&f.dramCache, "dram-cache-buckets", 0, "DRAM cache tier in front of the nvme store, in buckets (0 disables; requires -offload nvme)")
	flag.StringVar(&f.actOffload, "act-offload", "", "activation spill tier: dram (host cache over C2C), nvme (file-backed), or empty (activations stay resident)")
	flag.StringVar(&f.actDir, "act-dir", "", "directory for nvme activation backing files (default: system temp)")
	flag.IntVar(&f.actResident, "act-resident-layers", hw.ActMinResidentLayers, "activation write-behind window: layers kept resident with -act-offload (the default is the floor)")
	flag.IntVar(&f.bucketElems, "bucket-elems", 0, "per-bucket element budget (0: the 64 MB default; shrink so toy models split into several buckets)")
	flag.StringVar(&f.placement, "placement", "", "bucket placement: auto (GPU-retained tail, §4.3), cpu, gpu, or empty (homogeneous)")
	flag.IntVar(&f.gpuBuckets, "gpu-buckets", 0, "pin the GPU-retained bucket tail in -placement auto (0: derive by grid search)")
	jsonOut := flag.Bool("json", false, "emit final stats and telemetry as JSON on stdout (suppresses the human progress log)")
	traceOut := flag.String("trace", "", "write the run's Chrome trace-event JSON to this file (open in Perfetto or chrome://tracing; one track per rank, store worker, and comm plane)")
	obsAddr := flag.String("obs-addr", "", "serve /metrics, /trace, and /debug/pprof on this address during the run (e.g. localhost:6060; the bound address is logged)")
	flag.Parse()

	// Tracing turns on when anything consumes it: a trace file or the
	// live /trace endpoint. Nil otherwise — the engines' zero-cost mode.
	var tracer *superoffload.Tracer
	if *traceOut != "" || *obsAddr != "" {
		tracer = superoffload.NewTracer()
	}
	model, eng, err := f.start(tracer)
	if err != nil {
		return err
	}
	parallelism := "1 rank"
	switch {
	case f.pipeRank > 1:
		parallelism = fmt.Sprintf("%d×%d×%d 3-D engine (%d DP groups × %d SP ranks × %d pipeline stages)",
			f.ranks, f.seqRanks, f.pipeRank, f.ranks, f.seqRanks, f.pipeRank)
	case f.ranks > 1 && f.seqRanks > 1:
		parallelism = fmt.Sprintf("%d×%d mesh (%d DP groups × %d SP ranks)", f.ranks, f.seqRanks, f.ranks, f.seqRanks)
	case f.ranks > 1:
		parallelism = fmt.Sprintf("%d DP rank(s)", f.ranks)
	case f.seqRanks > 1:
		parallelism = fmt.Sprintf("%d SP rank(s)", f.seqRanks)
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
			model.NumParams(), eng.NumBuckets(), f.mode, parallelism, f.offload)
	}

	corpus := superoffload.NewCorpus(f.vocab, f.seed+1)
	var loss float64
	for i := 1; i <= f.steps; i++ {
		loss, err = eng.Step(corpus.NextBatch(f.batch, f.seq))
		if err != nil {
			return flagError(err)
		}
		if !*jsonOut && i%(max(1, f.steps/20)) == 0 {
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
		return enc.Encode(buildReport(eng, reg, model.NumParams(), f.mode, parallelism, f.steps, loss))
	}
	st := eng.Stats()
	fmt.Printf("done: %d steps, %d commits, %d clip-rollbacks, %d skip-rollbacks, %d redos (weight-changing verdicts)\n",
		st.Steps, st.Commits, st.ClipRolls, st.SkipRolls, st.Redos)
	printLinks(os.Stdout, eng.CommStats(), f.steps)
	if tel, ok := eng.StoreTelemetry(); ok {
		n := float64(f.steps)
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
