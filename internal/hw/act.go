package hw

// Activation-tier transfer sizing, shared by the real activation store
// (internal/act), the virtual-clock step model (place.StepTimes), and the
// planners — one formula, so the modeled activation traffic can never
// drift from what the engines actually spill.

// ActLayerBytes is the byte footprint of one transformer layer's retained
// forward activations for a backward pass over the given shape: the
// per-token block intermediates the real engine caches (block input,
// both pre-norm outputs with their layernorm statistics, the fused QKV
// projection, the pre-projection attention output, the residual, and the
// two MLP intermediates — 16 hidden-sized rows plus 4 scalars per token)
// and the post-softmax attention probabilities (tokens × heads × seq,
// where seq is the attention span: the global sequence length under
// sequence parallelism). Everything is float32, the precision the real
// engine trains in.
func ActLayerBytes(tokens, hidden, heads, seq int) int64 {
	if tokens <= 0 {
		return 0
	}
	rows := int64(tokens) * int64(16*hidden+4)
	probs := int64(tokens) * int64(heads) * int64(seq)
	return 4 * (rows + probs)
}

// ActMinResidentLayers is the activation tier's write-behind floor: the
// layer being differentiated plus the prefetch in flight.
const ActMinResidentLayers = 2

// ActWindow is the resident-layer window the activation tier runs with
// when asked for resident layers on a model of the given depth: raised to
// ActMinResidentLayers, capped at the depth. The store, the step clock,
// both planners, the facade and the supertrain flag all clamp through it.
func ActWindow(resident, layers int) int {
	return min(max(resident, ActMinResidentLayers), layers)
}
