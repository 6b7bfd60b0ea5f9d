package superoffload

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"superoffload/internal/stv/stvtest"
)

// facadeInput is everything a caller hands the facade: a model or its
// config, an optimizer config, a mesh and a batch. A *ConfigError's Field
// is a path into it.
type facadeInput struct {
	Model           *Model
	ModelConfig     ModelConfig
	OptimizerConfig OptimizerConfig
	MeshConfig      MeshConfig
	Batch           Batch
}

// baseInput is presetModel's config under DefaultOptimizer on a 2-rank
// mesh, with a batch every axis of the mesh can split.
func baseInput() facadeInput {
	return facadeInput{
		ModelConfig:     ModelConfig{Layers: 2, Hidden: 32, Heads: 4, Vocab: 64, MaxSeq: 16},
		OptimizerConfig: DefaultOptimizer(),
		MeshConfig:      MeshConfig{Ranks: 2},
		Batch:           Batch{BatchSize: 4, Seq: 12},
	}
}

// field resolves path, a dotted chain of exported field names, in in.
func (in *facadeInput) field(path string) (reflect.Value, bool) {
	v := reflect.ValueOf(in).Elem()
	for _, name := range strings.Split(path, ".") {
		if v.Kind() != reflect.Struct {
			return reflect.Value{}, false
		}
		f, ok := v.Type().FieldByName(name)
		if !ok || !f.IsExported() {
			return reflect.Value{}, false
		}
		v = v.FieldByIndex(f.Index)
	}
	return v, true
}

var nan, inf = math.NaN(), math.Inf(1)

// facadeAxes are the fields FuzzFacade draws and the values it draws each
// from: values[0] is baseInput's, the rest are every value a row of
// configRejections sets, the boundaries around them and a few that train.
var facadeAxes = []struct {
	path   string
	values []any
}{
	{"ModelConfig.Layers", []any{2, 1, 3, 0}},
	{"ModelConfig.Hidden", []any{32, 16, 64, 30, 4}},
	{"ModelConfig.Heads", []any{4, 0, 1, 2, 3, 8, -3}},
	{"ModelConfig.Vocab", []any{64, 2, 1}},
	{"ModelConfig.MaxSeq", []any{16, 0, 8, -5}},
	{"OptimizerConfig.LR", []any{1e-3, 0.0, 3e-3, -1e-3, nan, inf}},
	{"OptimizerConfig.Beta1", []any{0.9, 0.0, 0.5, 1.5}},
	{"OptimizerConfig.Beta2", []any{0.999, 0.0, 0.95, 1.0}},
	{"OptimizerConfig.Eps", []any{1e-8, 0.0, -1.0, inf}},
	{"OptimizerConfig.WeightDecay", []any{0.0, 0.1, -0.1, nan}},
	{"OptimizerConfig.ClipNorm", []any{1.0, 0.0, 0.25, 4.0, -1.0, nan}},
	{"OptimizerConfig.BucketElems", []any{0, 4000, 20000, -5}},
	{"OptimizerConfig.Synchronous", []any{false, true}},
	{"OptimizerConfig.LossScaling", []any{false, true}},
	{"OptimizerConfig.WarmupSteps", []any{0, 2, 5, 100, -1}},
	{"OptimizerConfig.TotalSteps", []any{0, 50, 2, -1}},
	{"OptimizerConfig.MinLRFrac", []any{0.0, 0.1, 1.0, 1.5, -0.1, nan}},
	{"OptimizerConfig.Offload.Backend", []any{"", "dram", "nvme", "tape"}},
	{"OptimizerConfig.Offload.ResidentBuckets", []any{0, 2, 3, 1, -1}},
	{"OptimizerConfig.Offload.IOPaths", []any{0, 1, 2, 4, -1}},
	{"OptimizerConfig.Offload.CacheBuckets", []any{0, 3, -1}},
	{"OptimizerConfig.Placement.Mode", []any{"", "auto", "cpu", "gpu", "hbm"}},
	{"OptimizerConfig.Placement.GPUBuckets", []any{0, 2, 3, -2}},
	{"OptimizerConfig.Placement.Batch", []any{0, 4, -1}},
	{"OptimizerConfig.Placement.Seq", []any{0, 16, -1}},
	{"OptimizerConfig.Activation.Offload", []any{"", "dram", "nvme", "tape"}},
	{"OptimizerConfig.Activation.ResidentLayers", []any{0, 2, 3, 1, -3}},
	{"OptimizerConfig.Activation.HBMBudgetBytes", []any{int64(0), int64(-1), int64(1 << 20)}},
	{"MeshConfig.Ranks", []any{2, 0, 1, 3, -1}},
	{"MeshConfig.SeqRanks", []any{0, 1, 2, 3, 4, -1}},
	{"MeshConfig.PipeRanks", []any{0, 1, 2, 3, -1}},
	{"Batch.BatchSize", []any{4, 2, 1, 3, 6, 0}},
	{"Batch.Seq", []any{12, 8, 16, 6, 7, 32, 0}},
}

// drawInput decodes a fuzz input: byte i picks axis i's value (modulo
// its count), and a missing byte picks baseInput's.
func drawInput(draw []byte) facadeInput {
	var in facadeInput
	for i, a := range facadeAxes {
		k := 0
		if i < len(draw) {
			k = int(draw[i]) % len(a.values)
		}
		f, _ := in.field(a.path)
		f.Set(reflect.ValueOf(a.values[k]))
	}
	return in
}

// encode is drawInput's inverse; it fails tb when a field holds a value
// its axis does not list.
func (in facadeInput) encode(tb testing.TB) []byte {
	tb.Helper()
	draw := make([]byte, len(facadeAxes))
	for i, a := range facadeAxes {
		f, _ := in.field(a.path)
		k := slices.IndexFunc(a.values, func(v any) bool { return fmt.Sprintf("%#v", v) == fmt.Sprintf("%#v", f.Interface()) })
		if k < 0 {
			tb.Fatalf("%s = %#v is not on its axis %v", a.path, f.Interface(), a.values)
		}
		draw[i] = byte(k)
	}
	return draw
}

// namedField requires err to be a *ConfigError whose Field is a real
// field of in under prefix and, outside Batch (whose Tokens and Targets
// report a length or an id), whose Value is what in holds there.
func namedField(tb testing.TB, in *facadeInput, err error, prefix string) *ConfigError {
	tb.Helper()
	var ce *ConfigError
	if !errors.As(err, &ce) {
		tb.Fatalf("%v (%T) is not a *ConfigError", err, err)
	}
	f, ok := in.field(ce.Field)
	if !ok || !strings.HasPrefix(ce.Field, prefix) {
		tb.Fatalf("%v names %q, not a field under %q", err, ce.Field, prefix)
	}
	if got, want := fmt.Sprintf("%#v", ce.Value), fmt.Sprintf("%#v", f.Interface()); ce.Field != "Model" && !strings.HasPrefix(ce.Field, "Batch.") && got != want {
		tb.Fatalf("%v reports %s, the input holds %s", err, got, want)
	}
	return ce
}

// adam sets the five Adam fields.
func adam(lr, beta1, beta2, eps, wd float64) func(*facadeInput) {
	return func(in *facadeInput) {
		in.OptimizerConfig.LR, in.OptimizerConfig.Beta1, in.OptimizerConfig.Beta2 = lr, beta1, beta2
		in.OptimizerConfig.Eps, in.OptimizerConfig.WeightDecay = eps, wd
	}
}

// offload, placement, activation and mesh set one config of the input.
func offload(o OffloadConfig) func(*facadeInput) {
	return func(in *facadeInput) { in.OptimizerConfig.Offload = o }
}

func placement(p PlacementConfig) func(*facadeInput) {
	return func(in *facadeInput) { in.OptimizerConfig.Placement = p }
}

func activation(a ActivationConfig) func(*facadeInput) {
	return func(in *facadeInput) { in.OptimizerConfig.Activation = a }
}

func mesh(m MeshConfig) func(*facadeInput) { return func(in *facadeInput) { in.MeshConfig = m } }

// tape is the given mesh over an offload backend no build knows.
func tape(m MeshConfig) func(*facadeInput) {
	return func(in *facadeInput) { in.MeshConfig, in.OptimizerConfig.Offload.Backend = m, "tape" }
}

// configRejections are the construction-time rules, one row per refused
// configuration over baseInput: the field it must be refused for ("" for
// one that must build). A row's group is the test that runs it; a group
// named after a preset is also built through that preset.
var configRejections = []struct {
	group, want string
	edit        func(*facadeInput)
}{
	{"model", "ModelConfig.Layers", func(in *facadeInput) { in.ModelConfig.Layers = 0 }},
	{"model", "ModelConfig.Hidden", func(in *facadeInput) { in.ModelConfig.Hidden = 4 }},
	{"model", "ModelConfig.Vocab", func(in *facadeInput) { in.ModelConfig.Vocab = 1 }},
	{"model", "ModelConfig.Heads", func(in *facadeInput) { in.ModelConfig.Hidden = 30 }},
	{"model", "ModelConfig.Heads", func(in *facadeInput) { in.ModelConfig.Heads, in.ModelConfig.MaxSeq = -3, -5 }},
	{"model", "ModelConfig.MaxSeq", func(in *facadeInput) { in.ModelConfig.MaxSeq = -5 }},

	// A NaN ClipNorm would scale every step's gradients by NaN, and a
	// negative one would turn clipping off although only 0 means off.
	{"clip", "OptimizerConfig.ClipNorm", func(in *facadeInput) { in.OptimizerConfig.ClipNorm = nan }},
	{"clip", "OptimizerConfig.ClipNorm", func(in *facadeInput) { in.OptimizerConfig.ClipNorm = -1 }},
	// Adam settings that would train NaN, or that LR 0's default recipe
	// would silently drop; LR 0 with the other four 0 is that recipe.
	{"adam", "OptimizerConfig.Eps", adam(1e-3, 0, 0, 0, 0)},
	{"adam", "OptimizerConfig.Eps", adam(1e-3, 0.9, 0.999, 0, 0)},
	{"adam", "OptimizerConfig.Eps", adam(1e-3, 0.9, 0.999, -1, 0)},
	{"adam", "OptimizerConfig.Eps", adam(1e-3, 0.9, 0.999, inf, 0)},
	{"adam", "OptimizerConfig.LR", adam(nan, 0.9, 0.999, 1e-8, 0)},
	{"adam", "OptimizerConfig.LR", adam(-1e-3, 0.9, 0.999, 1e-8, 0)},
	{"adam", "OptimizerConfig.LR", adam(inf, 0.9, 0.999, 1e-8, 0)},
	{"adam", "OptimizerConfig.Beta1", adam(1e-3, 1.5, 0.999, 1e-8, 0)},
	{"adam", "OptimizerConfig.Beta2", adam(1e-3, 0.9, 1, 1e-8, 0)},
	{"adam", "OptimizerConfig.WeightDecay", adam(1e-3, 0.9, 0.999, 1e-8, -0.1)},
	{"adam", "OptimizerConfig.WeightDecay", adam(1e-3, 0.9, 0.999, 1e-8, nan)},
	{"adam", "OptimizerConfig.Beta1", adam(0, 0.5, 0, 0, 0.1)},
	{"adam", "OptimizerConfig.WeightDecay", adam(0, 0, 0, 0, 0.1)},
	{"adam", "", adam(0, 0, 0, 0, 0)},
	// The LR schedule: a NaN floor trains NaN, and a warm-up or floor
	// without a schedule would be dropped.
	{"schedule", "OptimizerConfig.WarmupSteps", func(in *facadeInput) { in.OptimizerConfig.WarmupSteps = -1 }},
	{"schedule", "OptimizerConfig.TotalSteps", func(in *facadeInput) { in.OptimizerConfig.TotalSteps = -1 }},
	{"schedule", "OptimizerConfig.WarmupSteps", func(in *facadeInput) { in.OptimizerConfig.WarmupSteps = 100 }},
	{"schedule", "OptimizerConfig.WarmupSteps", func(in *facadeInput) { in.OptimizerConfig.WarmupSteps, in.OptimizerConfig.TotalSteps = 5, 2 }},
	{"schedule", "OptimizerConfig.MinLRFrac", func(in *facadeInput) { in.OptimizerConfig.MinLRFrac, in.OptimizerConfig.TotalSteps = nan, 2 }},
	{"schedule", "OptimizerConfig.MinLRFrac", func(in *facadeInput) { in.OptimizerConfig.MinLRFrac, in.OptimizerConfig.TotalSteps = 1.5, 50 }},
	{"schedule", "OptimizerConfig.MinLRFrac", func(in *facadeInput) { in.OptimizerConfig.MinLRFrac, in.OptimizerConfig.TotalSteps = -0.1, 50 }},
	{"schedule", "OptimizerConfig.MinLRFrac", func(in *facadeInput) { in.OptimizerConfig.MinLRFrac = 0.1 }},
	{"schedule", "", func(in *facadeInput) {
		in.OptimizerConfig.WarmupSteps, in.OptimizerConfig.TotalSteps, in.OptimizerConfig.MinLRFrac = 2, 2, 1
	}},
	// Offload, activation, placement and bucket settings that contradict
	// each other or fall below their floor, instead of being silently
	// ignored, clamped or defaulted.
	{"offload", "OptimizerConfig.Offload.Backend", tape(MeshConfig{Ranks: 2})},
	{"offload", "OptimizerConfig.Offload.IOPaths", offload(OffloadConfig{Backend: "dram", IOPaths: 4})},
	{"offload", "OptimizerConfig.Offload.CacheBuckets", offload(OffloadConfig{Backend: "dram", CacheBuckets: 3})},
	{"offload", "OptimizerConfig.Offload.CacheBuckets", offload(OffloadConfig{Backend: "nvme", CacheBuckets: -1})},
	{"offload", "OptimizerConfig.Offload.IOPaths", offload(OffloadConfig{Backend: "nvme", IOPaths: -1})},
	{"offload", "OptimizerConfig.Offload.ResidentBuckets", offload(OffloadConfig{Backend: "nvme", ResidentBuckets: -1})},
	{"offload", "OptimizerConfig.Offload.ResidentBuckets", offload(OffloadConfig{Backend: "nvme", ResidentBuckets: 1})},
	{"offload", "OptimizerConfig.Placement.Mode", func(in *facadeInput) { in.OptimizerConfig.Placement.Mode = "hbm" }},
	{"offload", "OptimizerConfig.Placement.GPUBuckets", placement(PlacementConfig{Mode: "cpu", GPUBuckets: 3})},
	{"offload", "OptimizerConfig.Placement.GPUBuckets", placement(PlacementConfig{GPUBuckets: 3})},
	{"offload", "OptimizerConfig.Placement.GPUBuckets", placement(PlacementConfig{Mode: "auto", GPUBuckets: -2})},
	{"offload", "OptimizerConfig.Placement.Batch", placement(PlacementConfig{Mode: "auto", Batch: -1})},
	{"offload", "OptimizerConfig.Placement.Seq", placement(PlacementConfig{Mode: "auto", Seq: -1})},
	{"offload", "OptimizerConfig.BucketElems", func(in *facadeInput) { in.OptimizerConfig.BucketElems = -5 }},
	{"offload", "OptimizerConfig.Activation.Offload", func(in *facadeInput) { in.OptimizerConfig.Activation.Offload = "tape" }},
	{"offload", "OptimizerConfig.Activation.ResidentLayers", activation(ActivationConfig{Offload: "dram", ResidentLayers: 1})},
	{"offload", "OptimizerConfig.Activation.ResidentLayers", activation(ActivationConfig{Offload: "dram", ResidentLayers: -3})},
	{"offload", "OptimizerConfig.Activation.HBMBudgetBytes", func(in *facadeInput) { in.OptimizerConfig.Activation.HBMBudgetBytes = -1 }},
	// Each preset refuses a nil model, an unknown offload backend and
	// the shapes the model cannot take: its 4 heads cannot split 3 ways,
	// nor its 2 blocks 3 ways. The batch's 12 positions can, so the
	// heads rule has to hold at construction.
	{"dp", "Model", mesh(MeshConfig{Ranks: 2})}, // a nil *Model
	{"dp", "OptimizerConfig.Offload.Backend", tape(MeshConfig{Ranks: 2})},
	{"dp", "MeshConfig.Ranks", mesh(MeshConfig{Ranks: -1})},
	{"sp", "Model", mesh(MeshConfig{Ranks: 1, SeqRanks: 2})},
	{"sp", "OptimizerConfig.Offload.Backend", tape(MeshConfig{Ranks: 1, SeqRanks: 2})},
	{"sp", "MeshConfig.SeqRanks", mesh(MeshConfig{Ranks: 1, SeqRanks: -1})},
	{"sp", "MeshConfig.SeqRanks", mesh(MeshConfig{Ranks: 1, SeqRanks: 3})},
	{"mesh", "Model", mesh(MeshConfig{Ranks: 2, SeqRanks: 2})},
	{"mesh", "OptimizerConfig.Offload.Backend", tape(MeshConfig{Ranks: 2, SeqRanks: 2})},
	{"mesh", "MeshConfig.Ranks", mesh(MeshConfig{Ranks: -1, SeqRanks: 2})},
	{"mesh", "MeshConfig.SeqRanks", mesh(MeshConfig{Ranks: 2, SeqRanks: -1})},
	{"mesh", "MeshConfig.SeqRanks", mesh(MeshConfig{Ranks: 2, SeqRanks: 3})},
	{"mesh", "MeshConfig.PipeRanks", mesh(MeshConfig{Ranks: 2, PipeRanks: 3})},
	{"mesh", "MeshConfig.PipeRanks", mesh(MeshConfig{Ranks: 2, PipeRanks: -1})},
}

// rejects runs configRejections' rows of group through NewModel, Init,
// InitMesh and, for a group named after a preset, that preset's build: a
// ModelConfig row is NewModel's to refuse, a MeshConfig row the mesh
// builds' (Init takes no mesh and builds), and any other row every
// constructor's. Every refusal is a *ConfigError naming the row's field
// and the value it holds.
func rejects(t *testing.T, group string) {
	rows := 0
	for _, r := range configRejections {
		if r.group != group {
			continue
		}
		rows++
		t.Run(r.want, func(t *testing.T) {
			in := baseInput()
			r.edit(&in)
			in.encode(t) // every row is a FuzzFacade seed
			in.OptimizerConfig.Offload.Dir = t.TempDir()
			m, err := NewModel(in.ModelConfig, 1)
			if strings.HasPrefix(r.want, "ModelConfig.") {
				if ce := namedField(t, &in, err, ""); ce.Field != r.want {
					t.Errorf("NewModel: %v, want one naming %s", err, r.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if r.want == "Model" {
				m = nil
			}
			builds := map[string]func() (*Engine, error){
				"Init":     func() (*Engine, error) { return Init(m, in.OptimizerConfig) },
				"InitMesh": func() (*Engine, error) { return InitMesh(m, in.OptimizerConfig, in.MeshConfig) },
			}
			if p, ok := presets[group]; ok {
				builds[group] = func() (*Engine, error) { return p.build(m, in.OptimizerConfig, in.MeshConfig) }
			}
			for name, build := range builds {
				eng, err := build()
				if err == nil {
					eng.Close()
				}
				want := r.want
				if name == "Init" && strings.HasPrefix(want, "MeshConfig.") {
					want = ""
				}
				switch {
				case want == "" && err != nil:
					t.Errorf("%s: %v, want it built", name, err)
				case want != "" && err == nil:
					t.Errorf("%s built, want a *ConfigError naming %s", name, want)
				case want != "":
					if ce := namedField(t, &in, err, ""); ce.Field != want {
						t.Errorf("%s: %v, want one naming %s", name, err, want)
					}
				}
			}
		})
	}
	if rows == 0 {
		t.Fatalf("no rows in group %q", group)
	}
}

func TestInitRejectsBadClipNorm(t *testing.T)            { rejects(t, "clip") }
func TestInitRejectsBadAdamHyperparameters(t *testing.T) { rejects(t, "adam") }
func TestInitRejectsBadSchedule(t *testing.T)            { rejects(t, "schedule") }
func TestInitRejectsBadOffloadAndPlacement(t *testing.T) { rejects(t, "offload") }
func TestInitDPValidation(t *testing.T)                  { rejects(t, "dp") }
func TestInitSPValidation(t *testing.T)                  { rejects(t, "sp") }
func TestInitMeshValidation(t *testing.T)                { rejects(t, "mesh") }

// FuzzFacade draws a (model, optimizer, mesh, batch) input from
// facadeAxes and requires exactly one of two outcomes:
//   - a *ConfigError naming a real field of the input, from NewModel or
//     InitMesh (then Init agrees unless the field is a MeshConfig one),
//     or from the first window's StepAccum naming a Batch field; or
//   - two steps — one batch, then a window of two — with finite losses,
//     Stats and losses bit-equal to Init accumulating the same R-way row
//     decomposition, and a Close that leaks no goroutine.
//
// Its seeds are configRejections' rows and one built shape per preset.
func FuzzFacade(f *testing.F) {
	for _, r := range configRejections {
		in := baseInput()
		r.edit(&in)
		f.Add(in.encode(f))
	}
	for _, p := range presets {
		in := baseInput()
		in.MeshConfig = p.shape
		f.Add(in.encode(f))
	}
	f.Fuzz(func(t *testing.T, draw []byte) { checkFacade(t, drawInput(draw)) })
}

// checkFacade is FuzzFacade's property on one input.
func checkFacade(t *testing.T, in facadeInput) {
	before := runtime.NumGoroutine()
	opt, refOpt := in.OptimizerConfig, in.OptimizerConfig
	opt.Offload.Dir, opt.Activation.Dir = t.TempDir(), t.TempDir()
	refOpt.Offload.Dir, refOpt.Activation.Dir = t.TempDir(), t.TempDir()
	// The HBM guard refuses a batch before it trains, so it has no say
	// in the numerics; the reference leaves it at its default because it
	// holds each group's rows on one rank.
	refOpt.Activation.HBMBudgetBytes = 0

	m, err := NewModel(in.ModelConfig, 1)
	if err != nil {
		namedField(t, &in, err, "ModelConfig.")
		return
	}
	eng, err := InitMesh(m, opt, in.MeshConfig)
	if err != nil {
		ce := namedField(t, &in, err, "")
		if strings.HasPrefix(ce.Field, "Batch.") {
			t.Fatalf("InitMesh refused %v, a batch rule", err)
		}
		if !strings.HasPrefix(ce.Field, "MeshConfig.") {
			single, err := Init(m, opt)
			if err == nil {
				single.Close()
			}
			if ice := namedField(t, &in, err, ""); ice.Field != ce.Field {
				t.Fatalf("InitMesh refused %s, Init %s", ce.Field, ice.Field)
			}
		}
		stvtest.NoLeakedGoroutines(t, before)
		return
	}
	ref, err := NewModel(in.ModelConfig, 1)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Init(ref, refOpt)
	if err != nil {
		eng.Close()
		t.Fatalf("InitMesh built, Init refused: %v", err)
	}
	defer func() {
		for _, e := range []*Engine{eng, single} {
			if err := e.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}
		stvtest.NoLeakedGoroutines(t, before)
	}()

	r, rows, seq := eng.Ranks(), in.Batch.BatchSize, in.Batch.Seq
	corpus := NewCorpus(in.ModelConfig.Vocab, 2)
	for i, window := range [][]Batch{{corpus.NextBatch(rows, seq)}, {corpus.NextBatch(rows, seq), corpus.NextBatch(rows, seq)}} {
		loss, err := eng.StepAccum(window)
		if err != nil {
			namedField(t, &in, err, "Batch.")
			if i > 0 {
				t.Fatalf("window %d refused a batch shape window 0 trained: %v", i, err)
			}
			return
		}
		var parts []Batch
		for _, b := range window {
			parts = append(parts, rowParts(b, r)...)
		}
		want, err := single.StepAccum(parts)
		if err != nil {
			t.Fatalf("Init refused the decomposition InitMesh trained: %v", err)
		}
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("window %d: loss %v", i, loss)
		}
		if loss != want {
			t.Fatalf("window %d: InitMesh loss %v, Init %v", i, loss, want)
		}
	}
	for _, e := range []*Engine{eng, single} {
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Stats() != single.Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", eng.Stats(), single.Stats())
	}
}

// rowParts is b's R-way row decomposition: the group slices a mesh of r
// data-parallel groups trains, which Init accumulates to match it.
func rowParts(b Batch, r int) []Batch {
	per, parts := b.BatchSize/r*b.Seq, make([]Batch, r)
	for g := range parts {
		parts[g] = Batch{Tokens: b.Tokens[g*per : (g+1)*per], Targets: b.Targets[g*per : (g+1)*per], BatchSize: b.BatchSize / r, Seq: b.Seq}
	}
	return parts
}
