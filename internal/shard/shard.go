// Package shard runs one simulation across multiple cores under classic
// conservative (YAWNS-style) synchronization. The topology is partitioned
// into islands, each with its own sim.Engine and clock; the runner repeats
// fork-join rounds bounded by a global horizon derived from the lookahead —
// the minimum inter-partition link propagation delay — so no partition can
// ever receive a packet "from the past". Between rounds, cross-partition
// packets collected in per-partition mailboxes are merged and scheduled
// onto their destination engines in a fixed order, and control-plane events
// run serially while every partition is quiescent at the barrier.
//
// Determinism contract. Cross-shard delivery order is a pure function of
// (arrival sim time, source partition ID, capture sequence number): the
// flush walks source partitions in ascending ID, each mailbox sorted by
// (time, sequence), and the destination engine's schedule-order tie-break
// preserves exactly that order among equal-time arrivals. Local events at a
// given timestamp always precede cross-shard arrivals at the same
// timestamp (arrivals land after the barrier). None of this depends on the
// worker count or on GOMAXPROCS — a round executes the same partition
// engines to the same horizon whatever the parallelism — so a run with 1
// worker is byte-identical to a run with N.
//
// Memory discipline. Mailboxes are pooled: each partition appends captures
// to a reusable slice it alone writes during a round, and the flush resets
// lengths without freeing, so steady-state cross-shard handoff performs no
// allocation. The fork-join barrier (WaitGroup + channel-free join) is the
// only synchronization; partition state needs no locks because each
// partition is owned by exactly one goroutine per round and the join gives
// the coordinator happens-before over everything the round wrote.
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/sim"
)

// xfer is one captured cross-partition packet awaiting the barrier.
type xfer struct {
	at  sim.Time
	seq uint64
	pt  *portal
	pkt *packet.Packet
}

// outbox is one partition's mailbox of outbound captures. Only that
// partition's goroutine appends during a round; only the coordinator reads
// and resets it at the barrier.
type outbox struct {
	xs  []xfer
	seq uint64
}

// deferred is a callback captured on a partition during a round, replayed
// on the control engine at the barrier in (time, partition, sequence)
// order. Flow-completion hooks use it so user callbacks and FCT recording
// run single-threaded in a reproducible order.
type deferred struct {
	at  sim.Time
	seq uint64
	fn  func()
}

// portal is the receiving end of one cross-partition cut: it implements
// netem.Remote for a specific (source partition, destination engine,
// destination node) triple. The deliver ArgFunc is built once so the flush
// schedules without per-packet closures.
type portal struct {
	r       *Runner
	src     int
	dst     *sim.Engine
	deliver sim.ArgFunc
}

// Carry implements netem.Remote: record the packet in the source
// partition's mailbox. Runs on the source partition's goroutine.
func (p *portal) Carry(pk *packet.Packet, at sim.Time) {
	ob := &p.r.out[p.src]
	ob.xs = append(ob.xs, xfer{at: at, seq: ob.seq, pt: p, pkt: pk})
	ob.seq++
}

// Stats counts the runner's work, for telemetry and tests. All fields are
// pure functions of the simulation inputs (never of worker count).
type Stats struct {
	// Rounds is how many barrier-bounded rounds have run.
	Rounds uint64
	// Carried is how many packets crossed a partition boundary.
	Carried uint64
	// Deferred is how many barrier callbacks were replayed.
	Deferred uint64
}

// Runner drives a set of partition engines plus one control engine in
// conservative rounds.
type Runner struct {
	ctl     *sim.Engine
	parts   []*sim.Engine
	byEng   map[*sim.Engine]int
	look    sim.Duration
	workers int

	out   []outbox
	defs  [][]deferred
	dseq  []uint64
	merge []deferred // reusable barrier merge buffer
	stats Stats
}

// New builds a runner over the given partition engines. lookahead must be
// strictly positive (conservative synchronization cannot make progress
// otherwise); workers is clamped to [1, len(parts)].
func New(ctl *sim.Engine, parts []*sim.Engine, lookahead sim.Duration, workers int) (*Runner, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("shard: no partitions")
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("shard: non-positive lookahead %v", lookahead)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(parts) {
		workers = len(parts)
	}
	r := &Runner{
		ctl:     ctl,
		parts:   parts,
		byEng:   make(map[*sim.Engine]int, len(parts)),
		look:    lookahead,
		workers: workers,
		out:     make([]outbox, len(parts)),
		defs:    make([][]deferred, len(parts)),
		dseq:    make([]uint64, len(parts)),
	}
	for i, e := range parts {
		if e == ctl {
			return nil, fmt.Errorf("shard: partition %d reuses the control engine", i)
		}
		if _, dup := r.byEng[e]; dup {
			return nil, fmt.Errorf("shard: partition %d reuses another partition's engine", i)
		}
		r.byEng[e] = i
	}
	return r, nil
}

// Lookahead returns the synchronization window in force.
func (r *Runner) Lookahead() sim.Duration { return r.look }

// Workers returns the effective worker count.
func (r *Runner) Workers() int { return r.workers }

// Stats returns the runner's cumulative work counters. A nil Runner (a
// simulation on one engine) has done no rounds and reports zero.
func (r *Runner) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	return r.stats
}

// Portal builds the netem.Remote endpoint for a link draining on srcEng
// whose destination node runs on dstEng. Both engines must be partition
// engines registered with this runner.
func (r *Runner) Portal(srcEng, dstEng *sim.Engine, dst netem.Node) netem.Remote {
	src, ok := r.byEng[srcEng]
	if !ok {
		panic("shard: Portal source engine is not a registered partition")
	}
	if _, ok := r.byEng[dstEng]; !ok {
		panic("shard: Portal destination engine is not a registered partition")
	}
	return &portal{
		r:       r,
		src:     src,
		dst:     dstEng,
		deliver: func(arg any) { dst.Receive(arg.(*packet.Packet)) },
	}
}

// DeferPart records fn, stamped with partition part's current clock, for
// replay on the control engine at the next barrier. Callbacks replay in
// (time, partition, sequence) order, so their effects are independent of
// worker interleaving. Call only from the owning partition's goroutine
// during a round (or from the coordinator between rounds).
func (r *Runner) DeferPart(part int, fn func()) {
	d := &r.defs[part]
	*d = append(*d, deferred{at: r.parts[part].Now(), seq: r.dseq[part], fn: fn})
	r.dseq[part]++
}

// Run advances the whole sharded simulation to the absolute time until,
// leaving every partition clock and the control clock at until (or at the
// last event when the system drains completely before it — matching
// Engine.Run's clock semantics per engine).
func (r *Runner) Run(until sim.Time) {
	for {
		var nextT sim.Time
		haveT := false
		for _, e := range r.parts {
			if t, ok := e.NextEventAt(); ok && (!haveT || t < nextT) {
				nextT, haveT = t, true
			}
		}
		nextC, haveC := r.ctl.NextEventAt()
		if (!haveT || nextT > until) && (!haveC || nextC > until) {
			// Nothing left inside the horizon: bring every clock to it.
			for _, e := range r.parts {
				if e.Now() < until {
					e.AdvanceTo(until)
				}
			}
			if r.ctl.Now() < until {
				r.ctl.AdvanceTo(until)
			}
			return
		}
		// The round horizon: the earliest partition event plus lookahead
		// (no cross-shard packet captured this round can arrive before
		// it), capped by the next control event so barrier-time actions
		// always execute with every partition clock exactly at their
		// timestamp, and by the caller's horizon.
		horizon := until
		if haveT {
			if h := nextT.Add(r.look); h >= nextT && h < horizon {
				horizon = h
			}
		}
		if haveC && nextC < horizon {
			horizon = nextC
		}
		r.round(horizon)
		r.flush()
		for _, e := range r.parts {
			if e.Now() < horizon {
				e.AdvanceTo(horizon)
			}
		}
		r.ctl.Run(horizon)
		if r.ctl.Now() < horizon {
			r.ctl.AdvanceTo(horizon)
		}
		r.stats.Rounds++
	}
}

// round runs every partition engine to the horizon. With one worker the
// coordinator runs them inline; otherwise workers claim partitions off an
// atomic counter and the WaitGroup join is the barrier that publishes all
// partition writes (mailboxes, deferred callbacks, engine state) back to
// the coordinator before flush reads them.
func (r *Runner) round(horizon sim.Time) {
	if r.workers <= 1 {
		for _, e := range r.parts {
			e.Run(horizon)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(r.parts) {
					return
				}
				r.parts[i].Run(horizon)
			}
		}()
	}
	wg.Wait()
}

// flush drains every mailbox into the destination engines and replays
// deferred callbacks onto the control engine, both in their contractual
// orders. Runs on the coordinator, after the round's join.
func (r *Runner) flush() {
	for src := range r.out {
		ob := &r.out[src]
		sortXfers(ob.xs)
		for i := range ob.xs {
			x := &ob.xs[i]
			x.pt.dst.ScheduleArgAt(x.at, x.pt.deliver, x.pkt)
			x.pkt = nil
			r.stats.Carried++
		}
		ob.xs = ob.xs[:0]
	}
	n := 0
	for _, ds := range r.defs {
		n += len(ds)
	}
	if n == 0 {
		return
	}
	r.merge = r.merge[:0]
	for _, ds := range r.defs {
		// Within a partition the deferred list is already in (time, seq)
		// order — callbacks are recorded as its clock advances — so the
		// cross-partition merge only needs a stable sort by time; ties
		// keep ascending (partition, seq) order by stability.
		r.merge = append(r.merge, ds...)
	}
	sortDeferred(r.merge)
	for i := range r.merge {
		d := &r.merge[i]
		r.ctl.ScheduleAt(d.at, d.fn)
		d.fn = nil
		r.stats.Deferred++
	}
	for i := range r.defs {
		r.defs[i] = r.defs[i][:0]
	}
}

// sortXfers orders a mailbox by (arrival time, capture sequence) with a
// hand-rolled insertion sort: mailboxes are short and nearly sorted, and
// sort.Slice would allocate on a path that promises 0 allocs/op.
func sortXfers(xs []xfer) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i - 1
		for j >= 0 && (xs[j].at > x.at || (xs[j].at == x.at && xs[j].seq > x.seq)) {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = x
	}
}

// sortDeferred stably orders the merged deferred list by timestamp;
// equal-time entries keep their (partition, sequence) append order.
func sortDeferred(ds []deferred) {
	for i := 1; i < len(ds); i++ {
		d := ds[i]
		j := i - 1
		for j >= 0 && ds[j].at > d.at {
			ds[j+1] = ds[j]
			j--
		}
		ds[j+1] = d
	}
}
