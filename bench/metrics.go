package main

import "fmt"

// class says how far a metric's value can be trusted to repeat.
type class int

const (
	// host metrics are wall-clock or memory readings of this machine:
	// they carry run-to-run noise and are compared against a bound.
	host class = iota
	// exact metrics are counts the program makes. With the same seed
	// and the same number of steps they repeat digit for digit.
	exact
	// simulated metrics are read off the program's virtual clocks (the
	// modeled GH200), not the host's. They repeat like exact ones.
	simulated
)

// spec is one metric's entry in the catalogue BENCHMARK.json mirrors.
type spec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	class  class
	bound  float64 // end-to-end only: the share it may worsen by
}

// endToEnd is what a supertrain user sees. All of it comes from the
// untraced pass. The time bounds are the widest the contract allows:
// this machine is a small shared VM on which the same binary's step time
// moves by 20-30% between runs minutes apart, so a tighter bound would
// reject noise, not regressions. The memory metrics repeat far better.
var endToEnd = []spec{
	{name: "step_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "step_ms_p90", unit: "ms", better: "lower", bound: 0.25},
	{name: "tokens_per_s", unit: "tok/s", better: "higher", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "alloc_kb_per_step", unit: "KB", better: "lower", bound: 0.10},
}

// perLayer is the ledger of the traced pass, one prefix per module.
// Simulated times carry the unit sim_ms so nothing mistakes them for
// host time.
var perLayer = []spec{
	// tensor, fp16, optim, nn: probes at the workload's per-rank shapes.
	{name: "tensor.matmul_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "tensor.matmul_t_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "tensor.t_matmul_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "fp16.cast_gbps", unit: "GB/s", better: "higher"},
	{name: "fp16.uncast_gbps", unit: "GB/s", better: "higher"},
	{name: "fp16.scanbad_gbps", unit: "GB/s", better: "higher"},
	{name: "optim.adam_ms_per_step", unit: "ms", better: "lower"},
	{name: "optim.adam_gbps", unit: "GB/s", better: "higher"},
	{name: "optim.snapshot_restore_ms", unit: "ms", better: "lower"},
	{name: "optim.clip_norm_ms", unit: "ms", better: "lower"},
	{name: "nn.forward_ms_p50", unit: "ms", better: "lower"},
	{name: "nn.backward_ms_p50", unit: "ms", better: "lower"},
	{name: "nn.fwd_bwd_share", unit: "ratio", better: "higher"},

	{name: "data.next_batch_us_p50", unit: "us", better: "lower"},

	// stv: Stats() deltas, the trainer track, the checkpoint round trip.
	{name: "stv.commits", unit: "count", better: "higher", class: exact},
	{name: "stv.clip_rolls", unit: "count", better: "lower", class: exact},
	{name: "stv.skip_rolls", unit: "count", better: "lower", class: exact},
	{name: "stv.redos", unit: "count", better: "lower", class: exact},
	{name: "stv.commit_ratio", unit: "ratio", better: "higher", class: exact},
	{name: "stv.commit_step_ms_p50", unit: "ms", better: "lower"},
	{name: "stv.redo_step_ms_p50", unit: "ms", better: "lower"},
	{name: "stv.forward_ms", unit: "ms", better: "lower"},
	{name: "stv.resolve_ms", unit: "ms", better: "lower"},
	{name: "stv.backward_ms", unit: "ms", better: "lower"},
	{name: "stv.speculate_ms", unit: "ms", better: "lower"},
	{name: "stv.unattributed_share", unit: "ratio", better: "lower"},
	{name: "stv.flush_ms", unit: "ms", better: "lower"},
	{name: "stv.ckpt_save_ms", unit: "ms", better: "lower"},
	{name: "stv.ckpt_load_ms", unit: "ms", better: "lower"},
	{name: "stv.ckpt_mb", unit: "MB", better: "lower", class: exact},

	// store: whichever BucketStore the run built, in situ.
	{name: "store.reads_per_step", unit: "count", better: "lower", class: exact},
	{name: "store.writes_per_step", unit: "count", better: "lower", class: exact},
	{name: "store.read_mb_per_step", unit: "MB", better: "lower", class: exact},
	{name: "store.write_mb_per_step", unit: "MB", better: "lower", class: exact},
	{name: "store.stalls_per_step", unit: "count", better: "lower", class: exact},
	{name: "store.cache_hit_ratio", unit: "ratio", better: "higher", class: exact},
	{name: "store.io_busy_share", unit: "ratio", better: "lower"},
	{name: "store.path_events", unit: "count", better: "lower", class: exact},
	{name: "store.modeled_overlap_frac", unit: "ratio", better: "higher", class: simulated},
	{name: "store.modeled_stall_ms_per_step", unit: "sim_ms", better: "lower", class: simulated},

	// nvmestore, mlpstore: the same sweeps over the two flash stores.
	{name: "nvmestore.acquire_us_p50", unit: "us", better: "lower"},
	{name: "nvmestore.acquire_us_p90", unit: "us", better: "lower"},
	{name: "nvmestore.release_us_p50", unit: "us", better: "lower"},
	{name: "nvmestore.write_sweep_mbps", unit: "MB/s", better: "higher"},
	{name: "nvmestore.read_sweep_mbps", unit: "MB/s", better: "higher"},
	{name: "mlpstore.acquire_us_p50", unit: "us", better: "lower"},
	{name: "mlpstore.cached_acquire_us_p50", unit: "us", better: "lower"},
	{name: "mlpstore.release_us_p50", unit: "us", better: "lower"},
	{name: "mlpstore.write_sweep_mbps", unit: "MB/s", better: "higher"},
	{name: "mlpstore.read_sweep_mbps", unit: "MB/s", better: "higher"},

	// act: the activation tier, in situ and probed.
	{name: "act.spills_per_pass", unit: "count", better: "lower", class: exact},
	{name: "act.fetches_per_pass", unit: "count", better: "lower", class: exact},
	{name: "act.spill_mb_per_pass", unit: "MB", better: "lower", class: exact},
	{name: "act.stalls_per_pass", unit: "count", better: "lower", class: exact},
	{name: "act.io_busy_share", unit: "ratio", better: "lower"},
	{name: "act.modeled_overlap_frac", unit: "ratio", better: "higher", class: simulated},
	{name: "act.stash_us_p50", unit: "us", better: "lower"},
	{name: "act.fetch_us_p50", unit: "us", better: "lower"},
	{name: "act.dram_roundtrip_mbps", unit: "MB/s", better: "higher"},
	{name: "act.nvme_roundtrip_mbps", unit: "MB/s", better: "higher"},

	// dp: the rank tracks runSchedule writes, the coordinator's step
	// span, and CommStats. Milliseconds are per step, mean over ranks.
	{name: "dp.forward_ms", unit: "ms", better: "lower"},
	{name: "dp.backward_ms", unit: "ms", better: "lower"},
	{name: "dp.reduce_ms", unit: "ms", better: "lower"},
	{name: "dp.resolve_ms", unit: "ms", better: "lower"},
	{name: "dp.go_ms", unit: "ms", better: "lower"},
	{name: "dp.speculate_ms", unit: "ms", better: "lower"},
	{name: "dp.report_ms", unit: "ms", better: "lower"},
	{name: "dp.sendrecv_ms", unit: "ms", better: "lower"},
	{name: "dp.coord_step_ms", unit: "ms", better: "lower"},
	{name: "dp.rank_busy_share", unit: "ratio", better: "higher"},
	{name: "dp.sched_gap_ms", unit: "ms", better: "lower"},
	{name: "dp.rank_skew_ms", unit: "ms", better: "lower"},
	{name: "dp.pipe_wait_share", unit: "ratio", better: "lower"},
	{name: "dp.a2a_payloads_per_step", unit: "count", better: "lower", class: exact},
	{name: "dp.a2a_mb_per_step", unit: "MB", better: "lower", class: exact},
	{name: "dp.ring_hops_per_step", unit: "count", better: "lower", class: exact},
	{name: "dp.ring_mb_per_step", unit: "MB", better: "lower", class: exact},
	{name: "dp.stage_mb_per_step", unit: "MB", better: "lower", class: exact},

	// place: the planner probed, and the virtual superchip's clocks.
	{name: "place.steptimes_us", unit: "us", better: "lower"},
	{name: "place.auto_ms", unit: "ms", better: "lower"},
	{name: "place.gpu_buckets", unit: "count", better: "higher", class: exact},
	{name: "place.cpu_buckets", unit: "count", better: "lower", class: exact},
	{name: "place.nvme_buckets", unit: "count", better: "lower", class: exact},
	{name: "place.modeled_step_ms", unit: "sim_ms", better: "lower", class: simulated},
	{name: "place.modeled_gpu_busy_frac", unit: "ratio", better: "higher", class: simulated},
	{name: "place.modeled_hidden_frac", unit: "ratio", better: "higher", class: simulated},
	{name: "place.modeled_backward_ms", unit: "sim_ms", better: "lower", class: simulated},
	{name: "place.modeled_d2h_ms", unit: "sim_ms", better: "lower", class: simulated},
	{name: "place.modeled_adam_ms", unit: "sim_ms", better: "lower", class: simulated},
	{name: "place.modeled_h2d_ms", unit: "sim_ms", better: "lower", class: simulated},
	{name: "place.modeled_nvme_ms", unit: "sim_ms", better: "lower", class: simulated},
	{name: "place.modeled_act_stall_ms", unit: "sim_ms", better: "lower", class: simulated},

	// core: the analytic planner on the workload's paper-scale twin.
	{name: "core.twin_tflops", unit: "TFLOP/s", better: "higher", class: simulated},
	{name: "core.twin_gpu_busy_frac", unit: "ratio", better: "higher", class: simulated},
	{name: "core.plan_ms", unit: "ms", better: "lower"},

	// obs, runtime, facade: what the instruments and the process cost.
	{name: "obs.traced_step_ms_p50", unit: "ms", better: "lower"},
	{name: "obs.events_per_step", unit: "count", better: "lower"},
	{name: "obs.trace_export_ms", unit: "ms", better: "lower"},
	{name: "obs.trace_mb", unit: "MB", better: "lower"},
	{name: "runtime.allocs_per_step", unit: "count", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.heap_inuse_mb_peak", unit: "MB", better: "lower"},
	{name: "runtime.goroutines_leaked", unit: "count", better: "lower", class: exact},
	{name: "facade.init_ms", unit: "ms", better: "lower"},
	{name: "facade.warmup_ms", unit: "ms", better: "lower"},
	{name: "facade.close_ms", unit: "ms", better: "lower"},
}

// specIndex maps a metric name to its catalogue entry.
var specIndex = func() map[string]spec {
	m := map[string]spec{}
	for _, list := range [][]spec{endToEnd, perLayer} {
		for _, s := range list {
			if _, dup := m[s.name]; dup {
				panic("bench: metric " + s.name + " is in the catalogue twice")
			}
			m[s.name] = s
		}
	}
	return m
}()

// ledger collects a pass's metrics, taking each unit from the
// catalogue so a name and its unit cannot drift apart.
type ledger map[string]metric

// put records one metric. A name the catalogue does not have is a bug
// in the benchmark, caught by its own self-test.
func (l ledger) put(name string, value float64) {
	s, ok := specIndex[name]
	if !ok {
		panic(fmt.Sprintf("bench: metric %q is not in the catalogue", name))
	}
	l[name] = metric{Value: value, Unit: s.unit}
}

// fillAbsent gives every per-layer metric the pass did not measure the
// value 0: the layer did no work in this configuration (no ranks, no
// flash store, no activation tier). The driver wants every name on
// every workload.
func (l ledger) fillAbsent() {
	for _, s := range perLayer {
		if _, ok := l[s.name]; !ok {
			l[s.name] = metric{Value: 0, Unit: s.unit}
		}
	}
}
