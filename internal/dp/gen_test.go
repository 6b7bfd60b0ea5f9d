package dp

// The generated differential suite: every (R,S,P) shape, store,
// placement, activation tier and step option composes without changing
// the optimizer's math, so on the same global batches a drawn
// configuration reproduces, bit for bit, the serial reference
// (internal/stv/stvref) consuming the R-way row decomposition. Each test
// below runs
// one stratum of the draw: its cases pin the axes the test is about and
// draw the rest from a seed its name hashes to. A failing configuration
// is shrunk and printed as a Go literal for regressions.

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"superoffload/internal/act"
	"superoffload/internal/data"
	"superoffload/internal/hw"
	"superoffload/internal/model"
	"superoffload/internal/nn"
	"superoffload/internal/optim"
	"superoffload/internal/place"
	"superoffload/internal/stv"
	"superoffload/internal/stv/stvref"
	"superoffload/internal/stv/stvtest"
	"superoffload/internal/tensor"
)

// regressions are configurations that once failed, replayed verbatim by
// TestRegressions (paste the literal a failing run prints).
var regressions = []genConfig{}

func TestRegressions(t *testing.T) {
	for i, c := range regressions {
		t.Run(fmt.Sprint(i), func(t *testing.T) { runConfig(t, c) })
	}
}

// The strata, one test each. All but the first two keep the names of the
// hand-written tests they replace.
func TestDrawnConfigurations(t *testing.T)                    { runStratum(t) }
func TestBenchWorkloadCombinations(t *testing.T)              { runStratum(t) }
func TestEquivalenceAcrossRanks(t *testing.T)                 { runStratum(t) }
func TestEquivalenceWithInjectedOverflow(t *testing.T)        { runStratum(t) }
func TestEquivalenceWithSchedule(t *testing.T)                { runStratum(t) }
func TestStepAccumEquivalence(t *testing.T)                   { runStratum(t) }
func TestSynchronousMatchesSTV(t *testing.T)                  { runStratum(t) }
func TestTrainingLearnsAcrossRanks(t *testing.T)              { runStratum(t) }
func TestCheckpointRoundTripProperty(t *testing.T)            { runStratum(t) }
func TestCheckpointPortableAcrossRankCounts(t *testing.T)     { runStratum(t) }
func TestStressManyBucketsTightClip(t *testing.T)             { runStratum(t) }
func TestEquivalenceAcrossRanksNVMe(t *testing.T)             { runStratum(t) }
func TestEquivalenceWithInjectedOverflowNVMe(t *testing.T)    { runStratum(t) }
func TestCheckpointPortableAcrossStoresAndRanks(t *testing.T) { runStratum(t) }
func TestDPFaultInjectionGracefulDegradation(t *testing.T)    { runStratum(t) }
func TestMeshFaultInjectionGracefulDegradation(t *testing.T)  { runStratum(t) }
func TestEngineActBitExact(t *testing.T)                      { runStratum(t) }
func TestEnginePlacementBitExact(t *testing.T)                { runStratum(t) }
func TestEngineActTelemetry(t *testing.T)                     { runStratum(t) }
func TestEnginePlacementTelemetry(t *testing.T)               { runStratum(t) }
func TestSPEquivalenceAcrossRanks(t *testing.T)               { runStratum(t) }
func TestSPEquivalenceWithInjectedOverflow(t *testing.T)      { runStratum(t) }
func TestSPEquivalenceWithSchedule(t *testing.T)              { runStratum(t) }
func TestSPStepAccumEquivalence(t *testing.T)                 { runStratum(t) }
func TestSPWithNVMeStores(t *testing.T)                       { runStratum(t) }
func TestSPCheckpointPortability(t *testing.T)                { runStratum(t) }
func TestSPSynchronousMatchesSTV(t *testing.T)                { runStratum(t) }
func TestSPTrainingLearns(t *testing.T)                       { runStratum(t) }
func TestMeshEquivalenceGrid(t *testing.T)                    { runStratum(t) }
func TestMeshEquivalenceWithInjectedOverflow(t *testing.T)    { runStratum(t) }
func TestMeshStepAccumEquivalence(t *testing.T)               { runStratum(t) }
func TestMeshWithNVMeStores(t *testing.T)                     { runStratum(t) }
func TestMeshCheckpointRoundTripProperty(t *testing.T)        { runStratum(t) }
func TestMeshRaceStress(t *testing.T)                         { runStratum(t) }
func TestMeshTrainingLearns(t *testing.T)                     { runStratum(t) }
func TestPipeEquivalenceGrid(t *testing.T)                    { runStratum(t) }
func TestPipe1F1BEquivalence(t *testing.T)                    { runStratum(t) }
func TestPipeEquivalenceWithInjectedOverflow(t *testing.T)    { runStratum(t) }
func TestPipeWithNVMeStores(t *testing.T)                     { runStratum(t) }
func TestPipeCheckpointCrossShape(t *testing.T)               { runStratum(t) }
func TestPipeRaceStress(t *testing.T)                         { runStratum(t) }
func TestPipeTrainingLearns(t *testing.T)                     { runStratum(t) }
func TestFailedLoadChangesNothing(t *testing.T)               { runStratum(t) }

var (
	s111, s211, s411, s121, s141, s221, s241 = shape{1, 1, 1}, shape{2, 1, 1}, shape{4, 1, 1}, shape{1, 2, 1}, shape{1, 4, 1}, shape{2, 2, 1}, shape{2, 4, 1}
	s421, s112, s122, s212, s222, s114       = shape{4, 2, 1}, shape{1, 1, 2}, shape{1, 2, 2}, shape{2, 1, 2}, shape{2, 2, 2}, shape{1, 1, 4}
)

// strata lists, per test, the configurations it draws.
var strata = map[string][]genCase{
	"TestDrawnConfigurations":       drawn(8),
	"TestBenchWorkloadCombinations": benchCases(),

	"TestEquivalenceAcrossRanks":              each(nil, s111, s211, s411),
	"TestEquivalenceWithInjectedOverflow":     each(overflow, s211, s411),
	"TestEquivalenceWithSchedule":             one(s211, schedule),
	"TestStepAccumEquivalence":                one(s211, accum),
	"TestSynchronousMatchesSTV":               one(s211, ste),
	"TestTrainingLearnsAcrossRanks":           one(s411, learns),
	"TestCheckpointRoundTripProperty":         each(all(resumes(), midStreak), s111, s211, s411),
	"TestCheckpointPortableAcrossRankCounts":  one(s211, resumes(s411, initShape)),
	"TestStressManyBucketsTightClip":          one(s411, stress),
	"TestEquivalenceAcrossRanksNVMe":          each(flash, s111, s211, s411),
	"TestEquivalenceWithInjectedOverflowNVMe": each(all(flash, overflow), s211, s411),
	"TestCheckpointPortableAcrossStoresAndRanks": {
		{"R2nvme->R2dram", moves(s211, storeFlash1, s211, storeDRAM)},
		{"R2dram->R2nvme", moves(s211, storeDRAM, s211, storeFlash2)},
		{"R4nvme->R4nvme", moves(s411, storeFlash2Cache, s411, storeFlash1)},
		{"R2nvme->R4dram", moves(s211, storeFlash2, s411, storeDRAM)},
		{"R4nvme->R1dram", moves(s411, storeFlash1, initShape, storeDRAM)},
	},
	"TestDPFaultInjectionGracefulDegradation":   one(s211, fault),
	"TestMeshFaultInjectionGracefulDegradation": one(s221, fault),
	"TestEngineActBitExact": {
		{"dp-r2", all(at(s211), withAct)}, {"sp-s2", all(at(s121), withAct)}, {"mesh-2x2", all(at(s221), withAct)},
	},
	"TestEnginePlacementBitExact": {
		{"dp-r2", all(at(s211), placed)}, {"sp-s2", all(at(s121), placed)}, {"mesh-2x2", all(at(s221), placed)},
	},
	"TestEngineActTelemetry":       one(s211, withAct),
	"TestEnginePlacementTelemetry": one(s211, placed),

	"TestSPEquivalenceAcrossRanks":          each(nil, s111, s121, s141),
	"TestSPEquivalenceWithInjectedOverflow": each(overflow, s121, s141),
	"TestSPEquivalenceWithSchedule":         one(s121, schedule),
	"TestSPStepAccumEquivalence":            one(s121, accum),
	"TestSPWithNVMeStores":                  each(flash, s121, s141),
	"TestSPCheckpointPortability":           one(s141, resumes(s121, initShape)),
	"TestSPSynchronousMatchesSTV":           one(s121, ste),
	"TestSPTrainingLearns":                  one(s141, learns),

	"TestMeshEquivalenceGrid":                 meshGrid(),
	"TestMeshEquivalenceWithInjectedOverflow": each(overflow, s221, s241, s421),
	"TestMeshStepAccumEquivalence":            one(s221, accum),
	"TestMeshWithNVMeStores":                  each(flash, s221, s421, s241),
	"TestMeshCheckpointRoundTripProperty":     each(resumes(s111, s121, s211, s221, s241, s421), s211, s221, s241),
	"TestMeshRaceStress":                      one(s221, all(flash, stress)),
	"TestMeshTrainingLearns":                  one(s221, learns),

	"TestPipeEquivalenceGrid":                 each(nil, s111, s112, s121, s122, s211, s212, s221, s222, s114),
	"TestPipe1F1BEquivalence":                 each(accum, s112, s114, s212, s222, s122),
	"TestPipeEquivalenceWithInjectedOverflow": each(overflow, s212, s122, s114),
	"TestPipeWithNVMeStores":                  each(all(flash, accum), s212, s122, s114),
	"TestPipeCheckpointCrossShape":            each(resumes(s111, s112, s122, s212, s222, s114), s212, s222),
	"TestPipeRaceStress":                      one(s222, all(flash, accum, stress)),
	"TestPipeTrainingLearns":                  one(s122, learns),

	// Every resumed configuration first refuses a corrupt copy of its
	// checkpoint; these pin both corruptions on flash and DRAM restores.
	"TestFailedLoadChangesNothing": {
		{"flip/R2-nvme", all(moves(s211, storeDRAM, s211, storeFlash1), corrupts(false))},
		{"cut/R2-dram", all(moves(s211, storeFlash2, s211, storeDRAM), corrupts(true))},
		{"flip/init-cache", all(moves(s221, storeDRAM, initShape, storeFlash2Cache), corrupts(false))},
		{"cut/R2xS2xP2-nvme", all(moves(s111, storeDRAM, s222, storeFlash2), corrupts(true))},
	},
}

// shape is an (R,S,P) engine shape; the zero shape, every axis left 0,
// is the engine as superoffload.Init builds it.
type shape struct{ R, S, P int }

var initShape shape

// allShapes are the zero shape and the 13 explicit ones: R and S in
// {1,2,4} alone, the R×S mesh, and the pipeline grid {1,2}³ ∪ {(1,1,4)}.
var allShapes = []shape{initShape, s111, s211, s411, s121, s141, s221, s241, s421, s112, s122, s212, s222, s114}

// ranks is the data-parallel degree the reference decomposes rows by.
func (s shape) ranks() int { return max(s.R, 1) }

// world is the number of ranks the shape runs.
func (s shape) world() int { return max(s.R, 1) * max(s.S, 1) * max(s.P, 1) }

func (s shape) String() string {
	if s == initShape {
		return "init"
	}
	return fmt.Sprintf("R%dxS%dxP%d", s.R, s.S, s.P)
}

// The drawn tiers. They are strings, so a configuration printed with %#v
// is a Go literal as it stands.
type (
	storeKind string
	placeKind string
	actKind   string
)

const (
	storeDRAM        storeKind = ""
	storeFlash1      storeKind = "flash1"       // one flash path
	storeFlash2      storeKind = "flash2"       // two striped flash paths
	storeFlash2Cache storeKind = "flash2+cache" // two paths behind a DRAM cache tier

	placeNone      placeKind = ""
	placeCPU       placeKind = "cpu"        // every bucket on the CPU Adam
	placeGPU       placeKind = "gpu"        // every bucket GPU-resident
	placeTail      placeKind = "tail"       // a GPU-retained tail of 2 buckets
	placeTailFlash placeKind = "tail+flash" // the tail, its body on flash through a PlacedStore

	actNone actKind = ""
	actDRAM actKind = "dram"
	actNVMe actKind = "nvme"
)

var (
	stores = []storeKind{storeDRAM, storeFlash1, storeFlash2, storeFlash2Cache}
	places = []placeKind{placeNone, placeCPU, placeGPU, placeTail, placeTailFlash}
	acts   = []actKind{actNone, actDRAM, actNVMe}
)

// clipTight is a clip threshold below every gradient norm of these runs.
const clipTight = 0.25

// genConfig is one drawn configuration.
type genConfig struct {
	Shape        shape
	M            int // micro-batches per step
	Rows         int // rows per global micro-batch, a multiple of every R the run uses
	Store        storeKind
	Place        placeKind
	Act          actKind
	STE          bool    // synchronize-then-execute instead of STV
	Clip         float64 // 0, 1 or clipTight
	Overflow     bool    // loss scaling, with bucket 0 corrupted on steps ≡ 3 (mod 7)
	Schedule     bool    // warm-up cosine learning rate
	Fault        bool    // one flash path of every rank's store errors mid-run
	Bucket       int     // per-bucket element budget
	Steps        int
	Ckpt         int // save after this many steps and resume in Restore (0: no checkpoint)
	Restore      shape
	RestoreStore storeKind
	Learn        bool // the loss must fall over the run
	Lanes        int  // a solo cell's lane count; 0 derives it from GOMAXPROCS
	// Data seeds the corpus, and the corruption Restore refuses before
	// the good Load: even flips a bit, odd cuts the checkpoint short.
	Data uint64
}

// GoString renders the configuration as a literal for regressions.
func (c genConfig) GoString() string {
	type literal genConfig
	return strings.NewReplacer("dp.literal", "genConfig", "dp.", "").Replace(fmt.Sprintf("%#v", literal(c)))
}

// draw draws every axis of a configuration.
func draw(rng *rand.Rand) genConfig {
	c := genConfig{
		Shape:        allShapes[rng.IntN(len(allShapes))],
		M:            []int{1, 1, 2, 3, 4}[rng.IntN(5)],
		Rows:         2 << rng.IntN(2),
		Store:        []storeKind{storeDRAM, storeDRAM, storeFlash1, storeFlash2, storeFlash2Cache}[rng.IntN(5)],
		Place:        []placeKind{placeNone, placeNone, placeCPU, placeGPU, placeTail, placeTailFlash}[rng.IntN(6)],
		Act:          []actKind{actNone, actNone, actDRAM, actNVMe}[rng.IntN(4)],
		STE:          rng.IntN(4) == 0,
		Clip:         []float64{0, 1, clipTight}[rng.IntN(3)],
		Overflow:     rng.IntN(2) == 0,
		Schedule:     rng.IntN(2) == 0,
		Fault:        rng.IntN(5) == 0,
		Bucket:       []int{4000, 20000}[rng.IntN(2)],
		Steps:        6 + rng.IntN(4),
		Restore:      allShapes[rng.IntN(len(allShapes))],
		RestoreStore: stores[rng.IntN(len(stores))],
		Data:         rng.Uint64N(1 << 16),
	}
	if rng.IntN(3) == 0 {
		c.Ckpt = 2 + rng.IntN(c.Steps-3)
	}
	return c
}

// normalize makes a configuration buildable: a flash-bodied placement
// gets flash to put its body on, flash stores get buckets small enough to
// stream through their 2-bucket window, a fault is armed only where two
// uncached paths stream every rank's state (one survives to re-route to),
// and rows divide across every R the run uses.
func (c *genConfig) normalize() {
	if c.Learn {
		c.Steps = 120
	}
	if c.Place == placeTailFlash {
		c.Store, c.RestoreStore = cmp.Or(c.Store, storeFlash1), cmp.Or(c.RestoreStore, storeFlash1)
	}
	if c.Fault || c.Ckpt < 2 || c.Ckpt > c.Steps-2 {
		c.Ckpt, c.Restore, c.RestoreStore = 0, initShape, storeDRAM
	}
	if c.Store != storeDRAM || c.RestoreStore != storeDRAM {
		c.Bucket = min(c.Bucket, 4000)
	}
	c.Fault = c.Fault && c.Store == storeFlash2 && c.Place != placeTailFlash && c.buckets()/c.Shape.world() >= 3
	c.Rows = max(c.Rows, c.Shape.ranks(), c.Restore.ranks())
}

// layers is the model depth: 2, 4 where 4 stages need it, and under an
// activation tier 3 a stage (at least 4), so every final stage holds more
// layers than the 2-layer window and spills.
func (c genConfig) layers() int {
	p := max(c.Shape.P, c.Restore.P, 1)
	if c.Act != actNone {
		return max(4, 3*p)
	}
	return max(2, p)
}

func (c genConfig) model(seed uint64) *nn.GPT {
	cfg := model.Config{Name: "gen", Layers: c.layers(), Hidden: 32, Heads: 4, Vocab: 64}
	return nn.NewGPT(cfg, 16, tensor.NewRNG(seed))
}

// buckets is the size of the configuration's bucket partition.
func (c genConfig) buckets() int { return len(stv.PartitionGroups(c.model(1).Params(), c.Bucket)) }

// stvConfig is the optimizer side shared by the configuration and its
// reference.
func (c genConfig) stvConfig() stv.Config {
	a := optim.DefaultConfig()
	a.LR = 3e-3
	cfg := stv.Config{Adam: a, ClipNorm: c.Clip, BucketElems: c.Bucket}
	if c.STE {
		cfg.Mode = stv.STE
	}
	if c.Overflow {
		// A growth interval shorter than the injection period puts scale
		// doublings inside the run, so a resumed run needs the
		// checkpointed overflow-free streak as well as the scale.
		cfg.Scaler = &optim.LossScaler{Scale: 1024, GrowthInterval: 5, MinScale: 1, MaxScale: 1 << 24}
		cfg.InjectBad = func(step int) bool { return step%7 == 3 }
	}
	if c.Schedule {
		cfg.Schedule = stv.WarmupCosine(3, c.Steps, 0.1)
	}
	return cfg
}

// build constructs the engine of the configuration in shape sh over store
// kind sk from init seed. The flash stores it builds are appended to
// *flash.
func (c genConfig) build(sh shape, sk storeKind, seed uint64, dir string, fault bool, flash *[]*stv.MLPStore) (*Engine, error) {
	m := c.model(seed)
	nb := len(stv.PartitionGroups(m.Params(), c.Bucket))
	var plan *place.Plan
	if c.Place != placeNone {
		p := map[placeKind]place.Plan{
			placeCPU:       place.Uniform(nb, place.CPUAdam),
			placeGPU:       place.Uniform(nb, place.GPUResident),
			placeTail:      place.GPUTail(nb, 2),
			placeTailFlash: place.GPUTail(nb, 2).WithNVMeBody(),
		}[c.Place]
		plan = &p
	}
	newStore := func(rank int) (stv.BucketStore, error) {
		if sk == storeDRAM {
			return stv.NewDRAMStore(), nil
		}
		newFlash := func() (stv.BucketStore, error) {
			s, err := newFlashStore(sk, rank, dir, fault, (nb+sh.world()-1)/sh.world())
			if err != nil {
				return nil, err
			}
			*flash = append(*flash, s)
			return s, nil
		}
		if c.Place == placeTailFlash {
			return stv.NewPlacedStoreFlash(*plan, newFlash)
		}
		return newFlash()
	}
	newAct := func(int) (*act.Store, error) {
		tier := map[actKind]act.Tier{actDRAM: act.DRAM, actNVMe: act.NVMe}[c.Act]
		return act.NewStore(act.Config{Tier: tier, Dir: dir, ResidentLayers: 2, Hidden: 32, Params: int64(m.NumParams())})
	}
	sc := c.stvConfig()
	sc.Placement = plan
	cfg := Config{Config: sc, Ranks: sh.R, SeqRanks: sh.S, PipeRanks: sh.P, NewStore: newStore}
	if c.Act != actNone {
		cfg.NewActStore = newAct
	}
	e, err := New(m, cfg)
	if err == nil {
		for _, rk := range e.ranks {
			rk.want = c.Lanes
		}
	}
	return e, err
}

// newFlashStore builds one rank's flash store of kind sk with a 2-bucket
// window. An armed fault errors the rank's path rank%paths from a few IOs
// past the seed writes of the rank's owned buckets on.
func newFlashStore(sk storeKind, rank int, dir string, fault bool, owned int) (*stv.MLPStore, error) {
	paths := 2
	if sk == storeFlash1 {
		paths = 1
	}
	cfg := stv.MLPStoreConfig{Dir: dir, Paths: hw.NodeIOPaths(paths), ResidentBuckets: 2}
	if sk == storeFlash2Cache {
		cfg.CacheBuckets = 2
	}
	if fault {
		seeds := (owned + paths - 1) / paths
		cfg.WrapPath = stvtest.NewInjector(stvtest.Fault{Path: rank % paths, Kind: stvtest.FaultError, AfterOps: seeds + 4}).WrapPath
	}
	return stv.NewMLPStore(cfg)
}

// divergence is a difference at a known step, where the shrinker cuts.
type divergence struct {
	step int
	what string
}

func (d divergence) Error() string { return fmt.Sprintf("step %d: %s", d.step, d.what) }

// check trains the configuration and the serial reference on the same
// global batches and returns the first difference:
// in a loss, the master weights, Stats, checkpoint bytes, the attached
// tiers' telemetry, the comm counters, or the Close error. A checkpoint
// taken mid-run is restored into the configuration's second shape — after
// a failed Load of a corrupt copy, which must change nothing — and that
// shape resumes against the uninterrupted reference when its R matches,
// and against a reference restored from the same bytes when it does not.
func (c genConfig) check(dir string) error {
	var flash []*stv.MLPStore
	eng, err := c.build(c.Shape, c.Store, 42, dir, c.Fault, &flash)
	if err != nil {
		return err
	}
	ref := stvref.New(c.model(42), c.stvConfig())
	defer func() { eng.Close() }()

	corpus := data.NewCorpus(64, c.Data)
	sh, sk, fault := c.Shape, c.Store, c.Fault
	var base stv.Stats // the reference's counts when eng started
	var losses []float64
	for i := 0; i < c.Steps; i++ {
		if i == c.Ckpt && i > 0 {
			if !c.STE && eng.Save(io.Discard) == nil {
				return divergence{i, "Save accepted with a verdict pending"}
			}
			ckpt, err := same(eng, ref, base, i)
			if err != nil {
				return err
			}
			if err := c.finish(eng, sh, sk, i, false, nil); err != nil {
				return err
			}
			next, err := c.build(c.Restore, c.RestoreStore, 7, dir, false, &flash)
			if err != nil {
				return err
			}
			eng = next
			if err := c.refuse(eng, ckpt, i); err != nil {
				return err
			}
			if err := eng.Load(bytes.NewReader(ckpt)); err != nil {
				return err
			}
			if eng.StepIndex() != i || !slices.Equal(eng.MasterWeights(), ref.MasterWeights()) {
				return divergence{i, fmt.Sprintf("restored into %v at step index %d with other masters", c.Restore, eng.StepIndex())}
			}
			base = ref.Stats()
			if c.Restore.ranks() != sh.ranks() {
				// Another R folds the resumed reductions in another grouping.
				next := stvref.New(c.model(7), c.stvConfig())
				if err := next.Load(bytes.NewReader(ckpt)); err != nil {
					return err
				}
				ref, base = next, stv.Stats{}
			}
			sh, sk, fault = c.Restore, c.RestoreStore, false
		}
		window := make([]data.Batch, c.M)
		for m := range window {
			window[m] = corpus.NextBatch(c.Rows, 8)
		}
		l, err := eng.StepAccum(window)
		if err != nil {
			return divergence{i, err.Error()}
		}
		rl, err := ref.StepAccum(decompose(window, sh.ranks()))
		if err != nil {
			return err
		}
		if l != rl {
			return divergence{i, fmt.Sprintf("loss %v, reference %v", l, rl)}
		}
		losses = append(losses, l)
	}
	if _, err := same(eng, ref, base, c.Steps-1); err != nil {
		return err
	}
	if err := c.expect(eng.Stats(), losses); err != nil {
		return err
	}
	return c.finish(eng, sh, sk, c.Steps-c.Ckpt, fault, flash)
}

// refuse gives tr a copy of ckpt with one bit flipped or cut short, at an
// offset drawn from Data, and requires the Load to fail and to leave the
// step index, the master weights and every replica's weights as they were.
func (c genConfig) refuse(tr *Engine, ckpt []byte, step int) error {
	rng := rand.New(rand.NewPCG(c.Data, 1))
	bad, how := bytes.Clone(ckpt), ""
	if c.Data%2 == 0 {
		bit := rng.IntN(8 * len(bad))
		bad[bit/8] ^= 1 << (bit % 8)
		how = fmt.Sprintf("bit %d flipped", bit)
	} else {
		bad = bad[:rng.IntN(len(bad))]
		how = fmt.Sprintf("%d of %d bytes", len(bad), len(ckpt))
	}
	idx, before := tr.StepIndex(), weights(tr)
	if tr.Load(bytes.NewReader(bad)) == nil {
		return divergence{step, "checkpoint with " + how + " loaded"}
	}
	if tr.StepIndex() != idx || !slices.EqualFunc(before, weights(tr), slices.Equal) {
		return divergence{step, "failed Load of the checkpoint with " + how + " changed the engine"}
	}
	return nil
}

// run is what same compares on either side.
type run interface {
	Flush() (bool, error)
	Save(io.Writer) error
	MasterWeights() []float32
	Stats() stv.Stats
}

// weights is tr's master weights, then each replica's model weights: the
// reference's one model, or every rank's.
func weights(tr run) [][]float32 {
	var models []*nn.GPT
	switch tr := tr.(type) {
	case *stvref.Trainer:
		models = append(models, tr.Model)
	case *Engine:
		for _, rk := range tr.ranks {
			models = append(models, rk.model)
		}
	}
	out := [][]float32{tr.MasterWeights()}
	for _, m := range models {
		var w []float32
		for _, p := range m.Params() {
			w = append(w, p.W.Data...)
		}
		out = append(out, w)
	}
	return out
}

// decompose splits every micro-batch's rows r ways, in (micro-batch,
// group) order: the reference's view of an engine step.
func decompose(window []data.Batch, r int) []data.Batch {
	out := make([]data.Batch, 0, len(window)*r)
	for _, b := range window {
		per := b.BatchSize / r
		for g := 0; g < r; g++ {
			lo, hi := g*per*b.Seq, (g+1)*per*b.Seq
			out = append(out, data.Batch{Tokens: b.Tokens[lo:hi], Targets: b.Targets[lo:hi], BatchSize: per, Seq: b.Seq})
		}
	}
	return out
}

// same flushes both sides and compares, bit for bit, master weights and
// every replica's model weights with the reference model's (a replica
// can be wrong in blocks its stage never reads, where no loss shows it),
// then Stats (the reference's counted from base) and checkpoint bytes,
// which it returns.
func same(eng, ref run, base stv.Stats, step int) ([]byte, error) {
	if _, err := eng.Flush(); err != nil {
		return nil, err
	}
	if _, err := ref.Flush(); err != nil {
		return nil, err
	}
	ew, rw := weights(eng), weights(ref)
	bits := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }
	if !slices.EqualFunc(ew[0], rw[0], bits) {
		return nil, divergence{step, "master weights differ"}
	}
	for i, w := range ew[1:] {
		if !slices.EqualFunc(w, rw[1], bits) {
			return nil, divergence{step, fmt.Sprintf("replica %d's model weights differ from the reference's", i)}
		}
	}
	if got, want := eng.Stats(), sub(ref.Stats(), base); got != want {
		return nil, divergence{step, fmt.Sprintf("stats %+v, reference %+v", got, want)}
	}
	var eb, rb bytes.Buffer
	if err := eng.Save(&eb); err != nil {
		return nil, err
	}
	if err := ref.Save(&rb); err != nil {
		return nil, err
	}
	if !bytes.Equal(eb.Bytes(), rb.Bytes()) {
		return nil, divergence{step, "checkpoint bytes differ"}
	}
	return eb.Bytes(), nil
}

func sub(a, b stv.Stats) stv.Stats {
	return stv.Stats{Steps: a.Steps - b.Steps, Commits: a.Commits - b.Commits,
		ClipRolls: a.ClipRolls - b.ClipRolls, SkipRolls: a.SkipRolls - b.SkipRolls, Redos: a.Redos - b.Redos}
}

// expect checks the run exercised what it was drawn for: a learning run's
// loss fell by 15%, and on a run not restarted from a checkpoint (whose
// Stats restart at the restore) an injected overflow skipped, under STV
// counting a redo, and a tight clip rolled back at least 80% of the steps
// it did not skip.
func (c genConfig) expect(st stv.Stats, losses []float64) error {
	if c.Learn {
		first, last := avg(losses[:10]), avg(losses[len(losses)-10:])
		if math.IsNaN(last) || last > 0.85*first {
			return fmt.Errorf("not learning: first %.3f last %.3f", first, last)
		}
	}
	if c.Ckpt > 0 {
		return nil
	}
	if c.Overflow && (st.SkipRolls == 0 || !c.STE && st.Redos == 0) {
		return fmt.Errorf("injected overflow left stats %+v", st)
	}
	if c.Clip == clipTight && 5*st.ClipRolls < 4*(c.Steps-st.SkipRolls) {
		return fmt.Errorf("tight clip rolled back only %+v of %d steps", st, c.Steps)
	}
	return nil
}

func avg(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// telemetry checks every attached tier of tr, which ran steps steps,
// reports and no other does, and that an engine's links counted traffic
// on exactly the axes it has.
func (c genConfig) telemetry(tr *Engine, sh shape, sk storeKind, steps int) error {
	if tel, ok := tr.StoreTelemetry(); ok != (sk != storeDRAM) || ok && tel.Reads == 0 {
		return fmt.Errorf("store %#v: telemetry %+v, ok=%v", sk, tel, ok)
	}
	pt, ok := tr.PlacementTelemetry()
	census := 0
	for _, tier := range pt.Tiers {
		census += tier.Buckets
	}
	// Every step records once; only an overflow's skip moves that.
	if ok != (c.Place != placeNone) || ok && (pt.Steps == 0 || !c.Overflow && pt.Steps != steps ||
		census != tr.NumBuckets() || pt.PipelinedSeconds <= 0 || pt.PipelinedSeconds > pt.SerializedSeconds) {
		return fmt.Errorf("placement %#v: telemetry %+v after %d steps, ok=%v", c.Place, pt, steps, ok)
	}
	at, ok := tr.ActTelemetry()
	// Each final-stage rank's store runs exactly one pass per micro-batch
	// — a rollback redoes no forward — and every pass spills the layers
	// past the 2-layer window; the double buffer hides some of their
	// fetches, so spilled traffic can exceed fetched, never the reverse.
	stores, spilled := sh.world()/max(sh.P, 1), c.layers()/max(sh.P, 1)-2
	if ok != (c.Act != actNone) || ok && (at.Passes != steps*c.M || at.Spills != stores*spilled*at.Passes || at.Fetches == 0 ||
		at.BytesSpilled < at.BytesFetched || at.PipelinedSeconds() >= at.SerializedSeconds()) {
		return fmt.Errorf("activations %#v: telemetry %+v after %d steps, ok=%v", c.Act, at, steps, ok)
	}
	cs := tr.CommStats()
	seq := cs.A2APayloads > 0 && cs.RingHops > 0
	stage := cs.StageSends > 0 && cs.StageFloats > 0
	if seq != (sh.S > 1) || stage != (sh.P > 1) || sh.S <= 1 && cs.A2AFloats+cs.RingFloats > 0 || sh.P <= 1 && cs.StageSends > 0 {
		return fmt.Errorf("%v: comm counters %+v", sh, cs)
	}
	return nil
}

// finish checks the telemetry of tr, which ran steps steps, then closes
// it under the fault contract: a healthy run closes clean; under a fault
// every rank's store latched an error and logged a quarantine and a
// recovery or re-route, and Close reports it.
func (c genConfig) finish(tr *Engine, sh shape, sk storeKind, steps int, fault bool, flash []*stv.MLPStore) error {
	if err := c.telemetry(tr, sh, sk, steps); err != nil {
		return err
	}
	if fault {
		for i, s := range flash {
			kinds := map[string]int{}
			for _, e := range s.Telemetry().Events {
				kinds[e.Kind]++
			}
			if s.Err() == nil || kinds["quarantine"] == 0 || kinds["recover"]+kinds["reroute"] == 0 {
				return fmt.Errorf("flash store %d: error %v, events %v", i, s.Err(), kinds)
			}
		}
	}
	err := tr.Close()
	if fault && (err == nil || !strings.Contains(err.Error(), "path")) {
		return fmt.Errorf("Close returned %v, want the latched path error", err)
	}
	if !fault && err != nil {
		return fmt.Errorf("Close: %w", err)
	}
	return nil
}

// runConfig checks one configuration. On failure it shrinks the
// configuration and prints the smallest one that still fails.
func runConfig(t *testing.T, c genConfig) {
	t.Helper()
	before := runtime.NumGoroutine()
	if err := c.check(t.TempDir()); err != nil {
		t.Fatalf("%v\n%#v\nminimal failing configuration, for regressions:\n%#v", err, c, shrink(t, c, err))
	}
	stvtest.NoLeakedGoroutines(t, before)
}

// shrink reduces a failing configuration while it keeps failing: the run
// is cut at the first divergence, then features switch off one at a time,
// then every axis drops to 1.
func shrink(t *testing.T, c genConfig, err error) genConfig {
	try := func(f func(*genConfig)) {
		next := c
		f(&next)
		next.normalize()
		if next != c && next.check(t.TempDir()) != nil {
			c = next
		}
	}
	var d divergence
	if errors.As(err, &d) {
		try(func(x *genConfig) { x.Learn, x.Steps = false, d.step+1 })
	}
	for _, f := range []func(*genConfig){
		func(x *genConfig) { x.Fault = false },
		func(x *genConfig) { x.Ckpt = 0 },
		func(x *genConfig) { x.Act = actNone },
		func(x *genConfig) { x.Place = placeNone },
		func(x *genConfig) { x.Store = storeDRAM },
		func(x *genConfig) { x.Overflow = false },
		func(x *genConfig) { x.Clip = 0 },
		func(x *genConfig) { x.Schedule = false },
		func(x *genConfig) { x.STE = false },
		func(x *genConfig) { x.M = 1 },
		func(x *genConfig) { x.Shape.R = min(x.Shape.R, 1) },
		func(x *genConfig) { x.Shape.S = min(x.Shape.S, 1) },
		func(x *genConfig) { x.Shape.P = min(x.Shape.P, 1) },
	} {
		try(f)
	}
	return c
}

// genCase is one configuration of a stratum: named cases run as subtests,
// an unnamed one as the test itself.
type genCase struct {
	name string
	pin  pin
}

// pin overrides axes of a drawn configuration.
type pin func(c *genConfig, rng *rand.Rand)

// draw draws the case's configuration from the seed its test's and its
// own name hash to, pinned and normalized.
func (gc genCase) draw(test string) genConfig {
	h := fnv.New64a()
	h.Write([]byte(test + "/" + gc.name))
	rng := rand.New(rand.NewPCG(h.Sum64(), 0))
	c := draw(rng)
	if gc.pin != nil {
		gc.pin(&c, rng)
	}
	c.normalize()
	return c
}

// runStratum checks the configurations of the calling test's stratum.
func runStratum(t *testing.T) {
	cases, ok := strata[t.Name()]
	if !ok {
		t.Fatalf("no stratum for %s", t.Name())
	}
	for _, gc := range cases {
		c := gc.draw(t.Name())
		if gc.name == "" {
			runConfig(t, c)
			continue
		}
		t.Run(gc.name, func(t *testing.T) { runConfig(t, c) })
	}
}

func all(pins ...pin) pin {
	return func(c *genConfig, rng *rand.Rand) {
		for _, p := range pins {
			if p != nil {
				p(c, rng)
			}
		}
	}
}

func at(sh shape) pin { return func(c *genConfig, _ *rand.Rand) { c.Shape = sh } }

// one is a stratum of one configuration in shape sh.
func one(sh shape, p pin) []genCase { return []genCase{{pin: all(at(sh), p)}} }

// each is a stratum of one configuration per shape, named by the shape.
func each(p pin, shapes ...shape) []genCase {
	var out []genCase
	for _, sh := range shapes {
		out = append(out, genCase{sh.String(), all(at(sh), p)})
	}
	return out
}

// meshGrid is each over the R×S grid, named without the P axis.
func meshGrid() []genCase {
	out := each(nil, s111, s121, s211, s221, s241, s421)
	for i := range out {
		out[i].name = strings.TrimSuffix(out[i].name, "xP1")
	}
	return out
}

// drawn is n configurations with nothing pinned.
func drawn(n int) []genCase {
	out := make([]genCase, n)
	for i := range out {
		out[i].name = fmt.Sprintf("%02d", i)
	}
	return out
}

func overflow(c *genConfig, _ *rand.Rand) { c.Overflow = true }
func ste(c *genConfig, _ *rand.Rand)      { c.STE = true }
func accum(c *genConfig, r *rand.Rand)    { c.M = 2 + r.IntN(3) }

// learns is a 120-step run whose loss must fall, kept cheap: one
// micro-batch, large buckets in DRAM, no activation tier.
func learns(c *genConfig, _ *rand.Rand) {
	c.Learn, c.M, c.Bucket, c.Store, c.Act = true, 1, 20000, storeDRAM, actNone
}

// schedule moves the learning rate under a clip that fires, so a clip
// re-execution must use the rolled-back step's own rate.
func schedule(c *genConfig, _ *rand.Rand) { c.Schedule, c.Clip = true, 1 }

// flash, withAct and placed keep a drawn non-default tier or draw one.
func flash(c *genConfig, r *rand.Rand)   { c.Store = cmp.Or(c.Store, stores[1+r.IntN(3)]) }
func withAct(c *genConfig, r *rand.Rand) { c.Act = cmp.Or(c.Act, acts[1+r.IntN(2)]) }
func placed(c *genConfig, r *rand.Rand)  { c.Place = cmp.Or(c.Place, places[1+r.IntN(4)]) }

// stress is many small buckets under a clip that fires every step and a
// periodic overflow.
func stress(c *genConfig, _ *rand.Rand) {
	c.Bucket, c.Clip, c.Overflow, c.Fault, c.Ckpt, c.Steps = 600, clipTight, true, false, 0, 12
}

func fault(c *genConfig, _ *rand.Rand) {
	c.Store, c.Fault, c.Bucket = storeFlash2, true, 4000
	if c.Place == placeTailFlash {
		c.Place = placeTail
	}
}

// resumes checkpoints mid-run and resumes in one of the shapes given, or
// in the saver's own shape when none are.
func resumes(into ...shape) pin {
	return func(c *genConfig, r *rand.Rand) {
		c.Fault, c.Ckpt, c.Restore = false, 2+r.IntN(c.Steps-3), c.Shape
		if len(into) > 0 {
			c.Restore = into[r.IntN(len(into))]
		}
	}
}

// corrupts picks the corruption a restore refuses first: a cut checkpoint
// or a flipped bit.
func corrupts(cut bool) pin {
	return func(c *genConfig, _ *rand.Rand) {
		c.Data &^= 1
		if cut {
			c.Data |= 1
		}
	}
}

// midStreak checkpoints under loss scaling inside the overflow-free streak
// that doubles the scale at step 8 (an overflow at step 3, a doubling
// every 5 clean steps), so an exact resume needs the saved streak.
func midStreak(c *genConfig, r *rand.Rand) { c.Overflow, c.Steps, c.Ckpt = true, 9, 5+r.IntN(3) }

// moves checkpoints from shape and store src into shape and store dst.
func moves(src shape, srcStore storeKind, dst shape, dstStore storeKind) pin {
	return all(at(src), resumes(dst), func(c *genConfig, _ *rand.Rand) {
		c.Store, c.RestoreStore = srcStore, dstStore
		if c.Place == placeTailFlash {
			c.Place = placeTail
		}
	})
}

// benchWorkloads are the feature combinations bench/'s six workloads
// train, each under a GPU-tail placement.
var benchWorkloads = map[string]genConfig{
	"dense-1r":     {Shape: initShape, M: 1, Rows: 4, Place: placeTail},
	"rollback-1r":  {Shape: initShape, M: 1, Rows: 4, Place: placeTail, Clip: clipTight},
	"flash-1r":     {Shape: initShape, M: 1, Rows: 4, Store: storeFlash1, Place: placeTailFlash, Act: actNVMe},
	"dp2-mlpcache": {Shape: s211, M: 1, Rows: 4, Store: storeFlash2Cache, Place: placeTailFlash},
	"mesh-2x2":     {Shape: s221, M: 1, Rows: 4, Place: placeTail},
	"pipe-1x1x2":   {Shape: s112, M: 4, Rows: 2, Place: placeTail},
}

// asBench pins workload w's combination, with no checkpoint.
func asBench(w genConfig) pin {
	return func(c *genConfig, _ *rand.Rand) {
		c.Shape, c.M, c.Rows, c.Store, c.Place, c.Act, c.Clip, c.Ckpt = w.Shape, w.M, w.Rows, w.Store, w.Place, w.Act, w.Clip, 0
	}
}

func benchCases() []genCase {
	var out []genCase
	for _, name := range slices.Sorted(maps.Keys(benchWorkloads)) {
		out = append(out, genCase{name, asBench(benchWorkloads[name])})
	}
	return out
}

// drawnSet is every configuration the suite checks, in a fixed order.
func drawnSet() []genConfig {
	var out []genConfig
	for _, n := range slices.Sorted(maps.Keys(strata)) {
		for _, gc := range strata[n] {
			out = append(out, gc.draw(n))
		}
	}
	return append(out, regressions...)
}

// TestDrawnSetCoversEveryAxis is the generator's coverage guard: every
// stratum has a test, and the drawn set holds every shape and axis value,
// each non-default tier on a shape of every parallel axis (activations
// spilling on pipeline stages), bench/'s workload combinations, a stress
// run, the rollback kinds, a resume under loss scaling, a long learning
// run per parallel axis, and failed Loads of both corruptions into every
// store and a shape of every parallel axis.
func TestDrawnSetCoversEveryAxis(t *testing.T) {
	src, _ := os.ReadFile("gen_test.go")
	for name := range strata {
		if !bytes.Contains(src, []byte("func "+name+"(t *testing.T)")) {
			t.Errorf("stratum %s has no test to run it", name)
		}
	}
	set := drawnSet()
	has := func(what string, f func(genConfig) bool) {
		t.Helper()
		if !slices.ContainsFunc(set, f) {
			t.Errorf("no drawn configuration has %s", what)
		}
	}
	for _, sh := range allShapes {
		has("shape "+sh.String(), func(c genConfig) bool { return c.Shape == sh })
	}
	for m := 1; m <= 4; m++ {
		has(fmt.Sprintf("M=%d", m), func(c genConfig) bool { return c.M == m })
	}
	for _, clip := range []float64{0, 1, clipTight} {
		has(fmt.Sprintf("clip %g", clip), func(c genConfig) bool { return c.Clip == clip })
	}
	for _, b := range []bool{false, true} {
		has(fmt.Sprintf("STE=%t", b), func(c genConfig) bool { return c.STE == b })
		has(fmt.Sprintf("overflow=%t", b), func(c genConfig) bool { return c.Overflow == b })
		has(fmt.Sprintf("schedule=%t", b), func(c genConfig) bool { return c.Schedule == b })
		has(fmt.Sprintf("fault=%t", b), func(c genConfig) bool { return c.Fault == b })
		has(fmt.Sprintf("checkpoint=%t", b), func(c genConfig) bool { return (c.Ckpt > 0) == b })
	}
	for ax, on := range map[string]func(shape) bool{
		"R>1": func(s shape) bool { return s.R > 1 }, "S>1": func(s shape) bool { return s.S > 1 }, "P>1": func(s shape) bool { return s.P > 1 },
	} {
		for _, k := range stores {
			has(fmt.Sprintf("store %q on %s", k, ax), func(c genConfig) bool { return on(c.Shape) && c.Store == k })
		}
		for _, k := range places {
			has(fmt.Sprintf("placement %q on %s", k, ax), func(c genConfig) bool { return on(c.Shape) && c.Place == k })
		}
		for _, k := range acts {
			has(fmt.Sprintf("activation tier %q on %s", k, ax), func(c genConfig) bool { return on(c.Shape) && c.Act == k })
		}
		has("a 120-step learning run on "+ax, func(c genConfig) bool { return on(c.Shape) && c.Learn && c.Steps >= 120 })
		has("a failed Load on "+ax, func(c genConfig) bool { return c.Ckpt > 0 && on(c.Restore) })
	}
	for name, w := range benchWorkloads {
		has("bench workload "+name, func(c genConfig) bool { d := c; asBench(w)(&d, nil); return d == c })
	}
	has("a stress run", func(c genConfig) bool {
		return c.Bucket <= 600 && c.Clip == clipTight && c.Overflow && c.Shape.world() > 1
	})
	has("a skip rollback with a redo", func(c genConfig) bool { return c.Overflow && !c.STE && c.Ckpt == 0 })
	for _, k := range stores {
		for cut := range uint64(2) {
			has(fmt.Sprintf("a failed Load into store %q, cut=%d", k, cut), func(c genConfig) bool {
				return c.Ckpt > 0 && c.RestoreStore == k && c.Data%2 == cut
			})
		}
	}
	has("a checkpoint resumed in another shape", func(c genConfig) bool { return c.Ckpt > 0 && c.Restore != c.Shape })
	has("a checkpoint mid-streak before a scale doubling", func(c genConfig) bool { return c.Overflow && c.Ckpt > 4 && c.Ckpt < 9 && c.Steps > 8 })
	has("an activation tier spilling on every stage of a P>1 shape", func(c genConfig) bool {
		return c.Shape.P > 1 && c.Act != actNone && c.layers()/c.Shape.P > 2
	})
}
