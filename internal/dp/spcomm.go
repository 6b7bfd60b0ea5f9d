package dp

import (
	"sync/atomic"

	"superoffload/internal/nn"
	"superoffload/internal/obs"
)

// SPCommStats counts the engine's link traffic: all-to-all
// payloads/floats (two exchanges per layer per pass), weight-gradient
// ring hops/floats, and stage-boundary tensor sends/floats.
// Deterministic for a fixed model and step count; all-zero on the dense
// S=P=1 shape, which has none of these links.
type SPCommStats struct {
	// A2APayloads and A2AFloats count cross-rank attention-exchange
	// payloads and their total float32 volume.
	A2APayloads int64
	A2AFloats   int64
	// RingHops and RingFloats count weight-gradient ring hops and the
	// total float32 volume they carried.
	RingHops   int64
	RingFloats int64
	// StageSends and StageFloats count pipeline stage-boundary tensor
	// sends (activations downstream + gradients upstream) and their total
	// float32 volume. Zero at P=1.
	StageSends  int64
	StageFloats int64
}

// linkTelemetry is the live form of SPCommStats. Ranks update the
// counters concurrently; totals are deterministic for a fixed model and
// step count.
type linkTelemetry struct {
	a2aPayloads atomic.Int64
	a2aFloats   atomic.Int64
	ringHops    atomic.Int64
	ringFloats  atomic.Int64
	stageSends  atomic.Int64
	stageFloats atomic.Int64

	// track, when non-nil, receives one instant per collective call on
	// the engine's "comm" timeline (a2a exchanges, ring broadcasts,
	// stage-boundary sends), tagged with the float volume moved.
	track *obs.Track
}

// countStage records one stage-boundary tensor send of n floats.
func (t *linkTelemetry) countStage(name string, n int) {
	t.stageSends.Add(1)
	t.stageFloats.Add(int64(n))
	t.track.InstantInt(name, "floats", n)
}

// snapshot renders the counters as the public stats type.
func (t *linkTelemetry) snapshot() SPCommStats {
	return SPCommStats{
		A2APayloads: t.a2aPayloads.Load(),
		A2AFloats:   t.a2aFloats.Load(),
		RingHops:    t.ringHops.Load(),
		RingFloats:  t.ringFloats.Load(),
		StageSends:  t.stageSends.Load(),
		StageFloats: t.stageFloats.Load(),
	}
}

// spLinks is one cell's collective links: the S ranks of a (group, stage)
// cell each own a contiguous sequence shard of every batch row, so the
// links carry the per-layer all-to-alls that flip attention between
// sequence and head sharding (§4.7's two collectives per layer per pass)
// and the weight-gradient ring whose hops visit (batch row, shard) pairs
// in ascending global row order so the reduced gradient reproduces the
// single-rank fold bit for bit. An S=1 cell holds no channels: its
// exchange is the identity (nn.SP short-circuits it) and its ring is a
// local replay.
type spLinks struct {
	S   int            // sequence ranks in this group
	tel *linkTelemetry // shared traffic counters

	// a2a[dst][src] carries one attention-exchange payload — the
	// all-to-all collective primitive.
	a2a [][]chan []float32
	// ring[s] delivers the in-progress flat gradient buffer to rank s.
	ring []chan []float32
	// flat[s] broadcasts each micro-batch's completed reduction.
	flat []chan []float32
}

// newSPLinks wires one cell's collective links for s sequence ranks.
func newSPLinks(s int, tel *linkTelemetry) *spLinks {
	l := &spLinks{S: s, tel: tel}
	if s == 1 {
		return l
	}
	l.ring = make([]chan []float32, s)
	l.flat = make([]chan []float32, s)
	for i := 0; i < s; i++ {
		l.ring[i] = make(chan []float32, 1)
		l.flat[i] = make(chan []float32, 1)
	}
	l.a2a = make([][]chan []float32, s)
	for d := 0; d < s; d++ {
		l.a2a[d] = make([]chan []float32, s)
		for src := 0; src < s; src++ {
			l.a2a[d][src] = make(chan []float32, 1)
		}
	}
	return l
}

// allToAll is the collective primitive: rank sends payloads[d] to every
// peer d and receives the payload each peer addressed to it, indexed by
// source. Channels are buffered so all S sends complete before the
// receives, and per-pair FIFO keeps successive exchanges paired even when
// ranks run ahead. Telemetry counts only cross-rank payloads — the
// rank-to-self shard never crosses a link.
func (l *spLinks) allToAll(rank int, payloads [][]float32) [][]float32 {
	sent := 0
	for d := 0; d < l.S; d++ {
		if d != rank {
			l.tel.a2aPayloads.Add(1)
			l.tel.a2aFloats.Add(int64(len(payloads[d])))
			sent += len(payloads[d])
		}
		l.a2a[d][rank] <- payloads[d]
	}
	l.tel.track.InstantInt("a2a", "floats", sent)
	out := make([][]float32, l.S)
	for src := 0; src < l.S; src++ {
		out[src] = <-l.a2a[rank][src]
	}
	return out
}

// ringReduce chains one micro-batch's weight-gradient accumulation
// through the cell's ranks and returns the completed flat reduction:
// the buffer hops (batch row, shard) pairs in lexicographic order —
// ascending global row order — with each hop replaying that shard's
// per-row contributions on top of the received partial
// (nn.SPCache.AccumBatchRow). The last hop broadcasts the finished
// buffer to every rank in the cell; each caller receives its copy of
// the broadcast (the same underlying slice — receivers only read it).
// Rank 0 seeds each micro-batch's ring via seed (see flatSeeder for the
// buffer-reuse discipline). With S=1 the lone rank folds its rows in
// place and no channel is touched.
func (l *spLinks) ringReduce(local int, cache *nn.SPCache, batchRows int, seed func() []float32) []float32 {
	var buf []float32
	for b := 0; b < batchRows; b++ {
		switch {
		case local == 0 && b == 0:
			buf = seed()
		case l.S > 1:
			buf = <-l.ring[local]
		}
		cache.AccumBatchRow(buf, b)
		l.tel.ringHops.Add(1)
		l.tel.ringFloats.Add(int64(len(buf)))
		switch {
		case local == l.S-1 && b == batchRows-1:
			l.tel.track.InstantInt("ringBroadcast", "floats", len(buf))
			for d := 0; d < len(l.flat); d++ {
				l.flat[d] <- buf
			}
		case l.S > 1:
			l.ring[(local+1)%l.S] <- buf
		}
	}
	if l.S == 1 {
		return buf
	}
	return <-l.flat[local]
}

// flatSeeder hands a ring's rank 0 its per-micro-batch flat gradient
// buffers, alternating two: a buffer seeded at micro m is not reused
// before micro m+2, by which point every rank in the group has finished
// reading micro m's reduction (it must have, to have contributed its
// micro m+1 ring hops). Cross-cell consumers (the reduce links) never
// see these buffers — delegates stage copies.
type flatSeeder struct {
	bufs [2][]float32
	seq  int
}

// next returns a zeroed flat buffer of n floats under the alternation
// discipline.
func (f *flatSeeder) next(n int) []float32 {
	i := f.seq & 1
	f.seq++
	if f.bufs[i] == nil {
		f.bufs[i] = make([]float32, n)
		return f.bufs[i]
	}
	buf := f.bufs[i]
	for j := range buf {
		buf[j] = 0
	}
	return buf
}
