package dp

import (
	"sync/atomic"

	"superoffload/internal/nn"
	"superoffload/internal/obs"
)

// SPCommStats counts the engine's link traffic: all-to-all
// payloads/floats (two exchanges per layer per pass), weight-gradient
// ring hops/floats, and stage-boundary tensor sends/floats — what
// crosses a link, so a size-1 axis counts nothing (S=1: no all-to-all or
// ring traffic; P=1: no stage sends). Deterministic for a fixed model and
// step count.
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
// single-rank fold bit for bit. An S=1 cell holds no channels: it has
// no peer to exchange with and its ring is one local replay.
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

// allToAll is the collective primitive behind nn.SP.AllToAll: rank sends
// send[d] to every peer d and fills recv[src] with the payload each peer
// addressed to it; the rank's own shard never crosses a link and is
// skipped on both sides. Channels are buffered so all sends complete
// before the receives, and per-pair FIFO keeps successive exchanges
// paired even when ranks run ahead. Payloads pass by reference out of the
// sender's cache arena (see the lifetime contract in nn/workspace.go).
func (l *spLinks) allToAll(rank int, send, recv [][]float32) {
	sent := 0
	for d := 0; d < l.S; d++ {
		if d != rank {
			l.tel.a2aPayloads.Add(1)
			sent += len(send[d])
			l.a2a[d][rank] <- send[d]
		}
	}
	l.tel.a2aFloats.Add(int64(sent))
	l.tel.track.InstantInt("a2a", "floats", sent)
	for src := 0; src < l.S; src++ {
		if src != rank {
			recv[src] = <-l.a2a[rank][src]
		}
	}
}

// ringReduce chains one micro-batch's weight-gradient accumulation
// through the cell's ranks and returns the completed flat reduction:
// the buffer hops (batch row, shard) pairs in lexicographic order —
// ascending global row order — with each hop replaying that shard's
// per-row contributions on top of the received partial
// (nn.Lanes.Replay). The last hop broadcasts the finished
// buffer to every rank in the cell; each caller receives its copy of
// the broadcast (the same underlying slice — receivers only read it).
// Rank 0 seeds each micro-batch's ring via seed (see flatSeeder for the
// buffer-reuse discipline). With S=1 there is no peer and no link to
// count: the lone rank replays all its rows in one pass, over its lanes.
func (l *spLinks) ringReduce(local int, pass *nn.Lanes, batchRows int, seed func() []float32) []float32 {
	if l.S == 1 {
		buf := seed()
		pass.Replay(buf, 0, batchRows)
		return buf
	}
	for b := 0; b < batchRows; b++ {
		var buf []float32
		if local == 0 && b == 0 {
			buf = seed()
		} else {
			buf = <-l.ring[local]
		}
		pass.Replay(buf, b, b+1)
		l.tel.ringHops.Add(1)
		l.tel.ringFloats.Add(int64(len(buf)))
		if local == l.S-1 && b == batchRows-1 {
			l.tel.track.InstantInt("ringBroadcast", "floats", len(buf))
			for d := range l.flat {
				l.flat[d] <- buf
			}
		} else {
			l.ring[(local+1)%l.S] <- buf
		}
	}
	return <-l.flat[local]
}

// flatSeeder hands a ring's rank 0 its per-micro-batch flat gradient
// buffers, cycling through bufs. A cell with peers alternates two: a
// buffer seeded at micro m is not reused before micro m+2, by which point
// every rank in the group has finished reading micro m's reduction (it
// must have, to have contributed its micro m+1 ring hops). An S=1 cell
// has no other reader and keeps one. Cross-cell consumers (the reduce
// links) never see these buffers — delegates stage copies.
type flatSeeder struct {
	bufs [][]float32
	seq  int
}

// next returns a zeroed flat buffer of n floats under the cycling
// discipline. Every buffer is built at the first call, so the cost lands
// in the first step rather than across the first len(bufs).
func (f *flatSeeder) next(n int) []float32 {
	i := f.seq % len(f.bufs)
	f.seq++
	if len(f.bufs[i]) != n {
		for j := range f.bufs {
			f.bufs[j] = make([]float32, n)
		}
		return f.bufs[i]
	}
	clear(f.bufs[i])
	return f.bufs[i]
}
