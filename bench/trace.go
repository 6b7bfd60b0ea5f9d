package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"

	"superoffload"
	"superoffload/internal/obs"
)

// telemetry is one reading of every public getter the engine has.
type telemetry struct {
	stats superoffload.Stats
	store superoffload.StoreTelemetry
	place superoffload.PlacementTelemetry
	act   superoffload.ActTelemetry
	comm  superoffload.SPCommStats
	// Which tiers the engine has at all.
	hasStore, hasPlace, hasAct bool
}

func readTelemetry(e engine) telemetry {
	t := telemetry{stats: e.Stats()}
	t.store, t.hasStore = e.StoreTelemetry()
	t.place, t.hasPlace = e.PlacementTelemetry()
	t.act, t.hasAct = e.ActTelemetry()
	if c, ok := e.(commStatser); ok {
		t.comm = c.CommStats()
	}
	return t
}

// traced is the pass the per-layer ledger comes from: the same
// configuration with the program's tracer on, the benchmark's own spans
// on a track of that tracer, then the layer probes.
func (p *pass) traced(scratch string, out ledger) error {
	w := p.pc.w
	p.tracer = superoffload.NewTracer()
	p.bench = p.tracer.Track("bench")

	baseline := runtime.NumGoroutine()
	s, err := p.setup(filepath.Join(scratch, "0"))
	if err != nil {
		return err
	}
	out.put("facade.init_ms", 1e3*s.initS)
	out.put("facade.warmup_ms", 1e3*s.warmS)

	// The timed loop. Half the pass's time goes here; probes, export
	// and the oracle use the rest.
	var stepS, nextS, commitS, redoS []float64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	memBefore, heapPeak := ms, ms.HeapInuse
	before := readTelemetry(s.eng)
	prevRedos := before.stats.Redos
	firstEvent := p.tracer.Len()
	steps, wallS := p.timedLoop(s, p.pc.seconds/2, func(i int, d, n float64) {
		stepS, nextS = append(stepS, d), append(nextS, n)
		// A rollback is paid by the step after the one that caused it:
		// that step resolves the verdict and runs its forward again.
		if redos := s.eng.Stats().Redos; redos > prevRedos {
			redoS, prevRedos = append(redoS, d), redos
		} else {
			commitS = append(commitS, d)
		}
		if i%8 == 0 {
			runtime.ReadMemStats(&ms)
			heapPeak = max(heapPeak, ms.HeapInuse)
		}
	})
	events := p.tracer.EventsSince(firstEvent)
	after := readTelemetry(s.eng)
	runtime.ReadMemStats(&ms)
	n := float64(steps)

	ft := p.finish(s, baseline)

	sort.Float64s(stepS)
	tracedP50 := quantile(stepS, 0.5)
	fmt.Fprintf(p.log, "%s: %d traced steps in %.2f s, %d events\n", w.name, steps, wallS, len(events))
	out.put("obs.traced_step_ms_p50", 1e3*tracedP50)
	out.put("obs.events_per_step", float64(len(events))/n)
	out.put("data.next_batch_us_p50", 1e6*median(nextS))
	out.put("stv.commit_step_ms_p50", 1e3*median(commitS))
	out.put("stv.redo_step_ms_p50", 1e3*median(redoS))
	out.put("stv.flush_ms", 1e3*ft.flushS)
	out.put("stv.ckpt_save_ms", 1e3*ft.saveS)
	out.put("stv.ckpt_load_ms", 1e3*ft.loadS)
	out.put("stv.ckpt_mb", float64(ft.ckptBytes)/1e6)
	out.put("facade.close_ms", 1e3*ft.closeS)
	out.put("runtime.allocs_per_step", float64(ms.Mallocs-memBefore.Mallocs)/n)
	out.put("runtime.gc_cycles", float64(ms.NumGC-memBefore.NumGC))
	out.put("runtime.gc_pause_ms", float64(ms.PauseTotalNs-memBefore.PauseTotalNs)/1e6)
	out.put("runtime.heap_inuse_mb_peak", float64(heapPeak)/(1<<20))
	out.put("runtime.goroutines_leaked", float64(ft.leaked))

	fromTelemetry(out, w, before, after, n)
	fold(out, p.trackNames(), events, loopTotals{
		steps: n, wallS: wallS,
		storeReads: float64(after.store.Reads - before.store.Reads),
		actPasses:  float64(after.act.Passes - before.act.Passes),
	})

	if err := p.probes(scratch, out, tracedP50); err != nil {
		return err
	}
	if err := p.export(out); err != nil {
		return err
	}
	out.fillAbsent()
	return p.oracle(s)
}

// fromTelemetry turns the getters' deltas over the timed loop into the
// exact and simulated rows.
func fromTelemetry(out ledger, w workload, a, b telemetry, n float64) {
	st := b.stats
	commits := st.Commits - a.stats.Commits
	out.put("stv.commits", float64(commits))
	out.put("stv.clip_rolls", float64(st.ClipRolls-a.stats.ClipRolls))
	out.put("stv.skip_rolls", float64(st.SkipRolls-a.stats.SkipRolls))
	out.put("stv.redos", float64(st.Redos-a.stats.Redos))
	// A step's verdict lands during the next step, so the loop sees one
	// verdict per step taken.
	out.put("stv.commit_ratio", float64(commits)/n)

	if b.hasStore {
		d := b.store.Sub(a.store)
		out.put("store.reads_per_step", float64(d.Reads)/n)
		out.put("store.writes_per_step", float64(d.Writes)/n)
		out.put("store.read_mb_per_step", float64(d.BytesRead)/1e6/n)
		out.put("store.write_mb_per_step", float64(d.BytesWritten)/1e6/n)
		out.put("store.modeled_overlap_frac", 1-ratio(d.PipelinedSeconds(), d.SerializedSeconds()))
		out.put("store.modeled_stall_ms_per_step", 1e3*d.StallSeconds/n)
	}

	if b.hasAct {
		passes := float64(b.act.Passes - a.act.Passes)
		out.put("act.spills_per_pass", ratio(float64(b.act.Spills-a.act.Spills), passes))
		out.put("act.fetches_per_pass", ratio(float64(b.act.Fetches-a.act.Fetches), passes))
		out.put("act.spill_mb_per_pass", ratio(float64(b.act.BytesSpilled-a.act.BytesSpilled)/1e6, passes))
		pipelined := b.act.PipelinedSeconds() - a.act.PipelinedSeconds()
		serialized := b.act.SerializedSeconds() - a.act.SerializedSeconds()
		out.put("act.modeled_overlap_frac", 1-ratio(pipelined, serialized))
	}

	if b.hasPlace {
		// Multi-rank engines sum their ranks' clocks; one superchip's
		// step is the sum over ranks divided by the rank count.
		per := 1e3 / float64(b.place.Steps-a.place.Steps) / float64(w.worldSize())
		pipelined := b.place.PipelinedSeconds - a.place.PipelinedSeconds
		fwd := b.place.ForwardSeconds - a.place.ForwardSeconds
		bwd := b.place.BackwardSeconds - a.place.BackwardSeconds
		var d2h, adam, h2d, nvme float64
		for i, t := range b.place.Tiers {
			d2h += t.D2HSeconds - a.place.Tiers[i].D2HSeconds
			adam += t.AdamSeconds - a.place.Tiers[i].AdamSeconds
			h2d += t.H2DSeconds - a.place.Tiers[i].H2DSeconds
			nvme += t.NVMeSeconds - a.place.Tiers[i].NVMeSeconds
		}
		gpuAdam := b.place.Tiers[0].AdamSeconds - a.place.Tiers[0].AdamSeconds
		out.put("place.gpu_buckets", float64(b.place.Tiers[0].Buckets))
		out.put("place.cpu_buckets", float64(b.place.Tiers[1].Buckets))
		out.put("place.nvme_buckets", float64(b.place.Tiers[2].Buckets))
		out.put("place.modeled_step_ms", per*pipelined)
		out.put("place.modeled_gpu_busy_frac", ratio(fwd+bwd+gpuAdam, pipelined))
		out.put("place.modeled_hidden_frac", 1-ratio(pipelined, b.place.SerializedSeconds-a.place.SerializedSeconds))
		out.put("place.modeled_backward_ms", per*bwd)
		out.put("place.modeled_d2h_ms", per*d2h)
		out.put("place.modeled_adam_ms", per*adam)
		out.put("place.modeled_h2d_ms", per*h2d)
		out.put("place.modeled_nvme_ms", per*nvme)
		out.put("place.modeled_act_stall_ms", per*(b.place.ActStallSeconds-a.place.ActStallSeconds))
	}

	if w.multiRank() {
		out.put("dp.a2a_payloads_per_step", float64(b.comm.A2APayloads-a.comm.A2APayloads)/n)
		out.put("dp.a2a_mb_per_step", 4*float64(b.comm.A2AFloats-a.comm.A2AFloats)/1e6/n)
		out.put("dp.ring_hops_per_step", float64(b.comm.RingHops-a.comm.RingHops)/n)
		out.put("dp.ring_mb_per_step", 4*float64(b.comm.RingFloats-a.comm.RingFloats)/1e6/n)
		out.put("dp.stage_mb_per_step", 4*float64(b.comm.StageFloats-a.comm.StageFloats)/1e6/n)
	}
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// trackNames maps every track id the tracer has handed out to its name.
func (p *pass) trackNames() map[int]string {
	names := map[int]string{}
	for _, e := range p.tracer.Events() {
		if e.Ph == "M" {
			if name, ok := e.Args["name"].(string); ok {
				names[e.Tid] = name
			}
		}
	}
	return names
}

// loopTotals is what fold needs to know about the timed loop besides
// its events.
type loopTotals struct {
	steps, wallS float64
	// Flash reads and forward passes the getters counted, the
	// denominators of the hit ratio and the per-pass stall count.
	storeReads, actPasses float64
}

// trackTotals is what one track recorded during the timed loop.
type trackTotals struct {
	spanUs   map[string]float64 // total duration by span name
	instants map[string]int     // count by instant name
}

func (t *trackTotals) spans(names ...string) (us float64) {
	for _, n := range names {
		us += t.spanUs[n]
	}
	return us
}

func (t *trackTotals) allSpans() (us float64) {
	for _, d := range t.spanUs {
		us += d
	}
	return us
}

var rankTrack = regexp.MustCompile(`^rank \d+$`)

// fold turns the events the program's own tracer recorded during the
// timed loop into per-layer time. The tracks are the program's: one
// "trainer" track for the single-rank engine; "coordinator", one
// "rank N" per rank and "comm" for internal/dp; "rank N nvme" (plus
// "... path K" per MLP worker) per bucket store; "rank N act" per
// activation store. The benchmark's own "bench" track holds the step
// spans everything else sits inside.
func fold(out ledger, names map[int]string, events []obs.Event, loop loopTotals) {
	n, wallS := loop.steps, loop.wallS
	tracks := map[string]*trackTotals{}
	for _, e := range events {
		t := tracks[names[e.Tid]]
		if t == nil {
			t = &trackTotals{spanUs: map[string]float64{}, instants: map[string]int{}}
			tracks[names[e.Tid]] = t
		}
		switch e.Ph {
		case "X":
			t.spanUs[e.Name] += e.Dur
		case "i":
			t.instants[e.Name]++
		}
	}
	perStepMs := func(us float64) float64 { return us / 1e3 / n }
	benchStepUs := tracks["bench"].spans("step")

	// The engine's own top-level account of the step: the trainer's
	// four phases, or the coordinator's step span.
	var attributedUs float64
	if tr := tracks["trainer"]; tr != nil {
		out.put("stv.forward_ms", perStepMs(tr.spans("forward")))
		out.put("stv.resolve_ms", perStepMs(tr.spans("resolve")))
		out.put("stv.backward_ms", perStepMs(tr.spans("backward")))
		out.put("stv.speculate_ms", perStepMs(tr.spans("speculate")))
		attributedUs = tr.allSpans()
	}
	if co := tracks["coordinator"]; co != nil {
		attributedUs = co.spans("step")
		foldRanks(out, tracks, attributedUs, perStepMs)
	}
	out.put("stv.unattributed_share", 1-ratio(attributedUs, benchStepUs))

	// Store and activation tracks: worker spans are real file I/O,
	// instants are the consumer's prefetch / stall / cache decisions.
	var store, act ioTotals
	for name, t := range tracks {
		switch {
		case strings.Contains(name, " nvme"):
			store.add(t)
		case strings.HasSuffix(name, " act"):
			act.add(t)
		}
	}
	if store.tracks > 0 {
		out.put("store.stalls_per_step", float64(store.stalls)/n)
		out.put("store.cache_hit_ratio", ratio(float64(store.cacheHits), float64(store.cacheHits)+loop.storeReads))
		out.put("store.io_busy_share", ratio(store.ioUs, 1e6*wallS*float64(store.workers)))
		out.put("store.path_events", float64(store.pathEvents))
	}
	if act.tracks > 0 {
		out.put("act.io_busy_share", ratio(act.ioUs, 1e6*wallS*float64(act.workers)))
		out.put("act.stalls_per_pass", ratio(float64(act.stalls), loop.actPasses))
	}
}

// foldRanks derives the dp.* rows from the per-rank op spans.
func foldRanks(out ledger, tracks map[string]*trackTotals, coordUs float64, perStepMs func(float64) float64) {
	var ranks []*trackTotals
	for name, t := range tracks {
		if rankTrack.MatchString(name) {
			ranks = append(ranks, t)
		}
	}
	if len(ranks) == 0 {
		return
	}
	nr := float64(len(ranks))
	meanMs := func(ops ...string) float64 {
		var us float64
		for _, r := range ranks {
			us += r.spans(ops...)
		}
		return perStepMs(us / nr)
	}
	out.put("dp.forward_ms", meanMs("forward"))
	out.put("dp.backward_ms", meanMs("backward"))
	out.put("dp.reduce_ms", meanMs("reduce"))
	out.put("dp.resolve_ms", meanMs("resolve"))
	out.put("dp.go_ms", meanMs("go"))
	out.put("dp.speculate_ms", meanMs("speculate"))
	out.put("dp.report_ms", meanMs("report"))
	out.put("dp.sendrecv_ms", meanMs("sendAct", "recvAct", "sendGrad", "recvGrad"))
	out.put("dp.coord_step_ms", perStepMs(coordUs))

	var sumUs, waitShare float64
	minUs, maxUs := ranks[0].allSpans(), ranks[0].allSpans()
	for _, r := range ranks {
		us := r.allSpans()
		sumUs += us
		minUs, maxUs = min(minUs, us), max(maxUs, us)
		waitShare = max(waitShare, ratio(r.spans("recvAct", "recvGrad"), coordUs))
	}
	// Sums over the same steps, not medians: the layers must add up to
	// the whole.
	out.put("dp.rank_busy_share", ratio(sumUs/nr, coordUs))
	out.put("dp.sched_gap_ms", perStepMs(coordUs-maxUs))
	out.put("dp.rank_skew_ms", perStepMs(maxUs-minUs))
	out.put("dp.pipe_wait_share", waitShare)
}

// ioTotals sums the tracks of one kind of store.
type ioTotals struct {
	tracks, workers               int
	ioUs                          float64
	stalls, cacheHits, pathEvents int
}

func (io *ioTotals) add(t *trackTotals) {
	io.tracks++
	if us := t.spans("read", "write"); us > 0 {
		io.workers++
		io.ioUs += us
	}
	io.stalls += t.instants["stall"]
	io.cacheHits += t.instants["cacheHit"]
	io.pathEvents += t.instants["quarantine"] + t.instants["reroute"] + t.instants["recover"] + t.instants["pin"]
}

// export writes the whole trace where Perfetto can load it and records
// what that cost.
func (p *pass) export(out ledger) error {
	if err := os.MkdirAll(p.pc.out, 0o755); err != nil {
		return fmt.Errorf("trace directory: %w", err)
	}
	t0 := time.Now()
	var buf bytes.Buffer
	if err := p.tracer.WriteJSON(&buf); err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	path := filepath.Join(p.pc.out, p.pc.w.name+".trace.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	out.put("obs.trace_export_ms", 1e3*time.Since(t0).Seconds())
	out.put("obs.trace_mb", float64(buf.Len())/1e6)
	fmt.Fprintf(p.log, "trace: %d events in %s\n", p.tracer.Len(), path)
	return nil
}
