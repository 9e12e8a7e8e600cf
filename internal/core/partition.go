// Partitions: one simulation, many cores. A partitioned tester splits the
// deployment along the fabric's partition plan (fabric.PartitionSpec):
// every partition gets its own engine carrying its share of the switch
// pipeline, the FPGA NIC, the device links, and the fabric switches
// assigned to it, and a shard.Runner drives the engines in conservative
// rounds bounded by the fabric's minimum inter-partition propagation delay.
// Only inter-switch trunks cross the cut; each such link drains into a
// runner portal, and the reverse ACK paths route per flow through portals
// too, so every cross-partition hand-off goes through the runner's
// deterministic barrier merge.
//
// Determinism: a partitioned run's outputs are a pure function of the
// configuration, independent of Config.Shards' worker count and of
// GOMAXPROCS — Shards=1 and Shards=N are byte-identical. On a topology
// with more than one partition this is a different (equally valid) event
// interleaving than the one-partition Shards=0 build, so those two are not
// byte-comparable.
//
// The register and statistics readers below see every build as a list of
// partitions; the one-partition build is a list of one.
package core

import (
	"marlin/internal/fpga"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/shard"
	"marlin/internal/sim"
	"marlin/internal/tofino"
)

// partition is one slice of the tester hardware: a pipeline and NIC sized
// to the data ports whose hosts live in the partition, their private
// device interconnect, and the optional FPGA receiver, all on the
// partition's engine.
type partition struct {
	idx      int // fabric partition index
	eng      *sim.Engine
	pl       *tofino.Pipeline
	nic      *fpga.NIC
	sche     *netem.Link
	info     *netem.Link
	fpgaRecv *fpga.Receiver
}

// portalSlot defers portal construction: the fabric is wired before the
// runner exists (the lookahead is measured off the built fabric), so each
// cross-partition trunk drains into a slot that is bound to its runner
// portal immediately after shard.New.
type portalSlot struct {
	src, dst *sim.Engine
	node     netem.Node
	r        netem.Remote
}

func (s *portalSlot) Carry(p *packet.Packet, at sim.Time) { s.r.Carry(p, at) }

// ackRouter fans a receiver partition's ACK/NACK/CNP traffic to the
// pipeline owning each flow's TX port. Receiver responses carry no port,
// so the route is by flow ID; unknown flows (external flood traffic)
// deliver to the home partition, matching the one-partition pipeline where
// they die at the inactive flow. Every delivery — local or remote — goes
// through a runner portal so ordering stays a pure function of (time,
// partition, sequence).
type ackRouter struct {
	t    *Tester
	home int
	vias []netem.Remote // by index in parts
}

func (a *ackRouter) Carry(p *packet.Packet, at sim.Time) {
	g := a.home
	if r, ok := a.t.flows[p.Flow]; ok && r.part >= 0 {
		g = r.part
	}
	a.vias[g].Carry(p, at)
}

// ackRouters builds one router per partition, indexed like parts.
func (t *Tester) ackRouters() []*ackRouter {
	routers := make([]*ackRouter, len(t.parts))
	for i, part := range t.parts {
		r := &ackRouter{t: t, home: i, vias: make([]netem.Remote, len(t.parts))}
		for j, dpart := range t.parts {
			r.vias[j] = t.runner.Portal(part.eng, dpart.eng, dpart.pl.AckIn())
		}
		routers[i] = r
	}
	return routers
}

// owner returns the partition driving a started flow (nil for unknown and
// external flows).
func (t *Tester) owner(flow packet.FlowID) *partition {
	if r, ok := t.flows[flow]; ok && r.part >= 0 {
		return t.parts[r.part]
	}
	return nil
}

// ShardStats returns the runner's round/carry telemetry (zero on the
// one-partition build).
func (t *Tester) ShardStats() shard.Stats { return t.runner.Stats() }

// PipelineCounters reads the switch registers: the field-wise sum over
// every partition's pipeline.
func (t *Tester) PipelineCounters() tofino.Counters {
	var c tofino.Counters
	for _, part := range t.parts {
		c = c.Plus(part.pl.Counters())
	}
	return c
}

// PipelinePortCounters reads global data port i's registers, wherever its
// pipeline lives.
func (t *Tester) PipelinePortCounters(i int) tofino.PortCounters {
	return t.parts[t.portPart[i]].pl.PortCounters(t.portLocal[i])
}

// NICStats reads the FPGA registers, summed across partitions.
func (t *Tester) NICStats() fpga.Stats {
	var s fpga.Stats
	for _, part := range t.parts {
		s = s.Plus(part.nic.Stats())
	}
	return s
}

// FlowTxBytes reads a flow's cumulative generated DATA bytes from the
// pipeline owning its TX port.
func (t *Tester) FlowTxBytes(flow packet.FlowID) uint64 {
	if part := t.owner(flow); part != nil {
		return part.pl.FlowTxBytes(flow)
	}
	return 0
}

// FlowTrace returns a flow's fine-grained parameter trace from the NIC
// owning it (nil when logging is off or the flow is unknown).
func (t *Tester) FlowTrace(flow packet.FlowID) []fpga.TracePoint {
	part := t.owner(flow)
	if part == nil || part.nic.Logger() == nil {
		return nil
	}
	return part.nic.Logger().FlowTrace(flow)
}

// RTTSamples aggregates the FPGA's RTT probes: samples concatenate in
// partition order and counts sum. A single partition's EWMA is returned
// as is; several combine into the count-weighted mean of their EWMAs.
func (t *Tester) RTTSamples() (samplesUs []float64, count uint64, ewmaUs float64) {
	if len(t.parts) == 1 {
		return t.parts[0].nic.RTTSamples()
	}
	var weighted float64
	for _, part := range t.parts {
		s, c, e := part.nic.RTTSamples()
		samplesUs = append(samplesUs, s...)
		count += c
		weighted += e * float64(c)
	}
	if count > 0 {
		ewmaUs = weighted / float64(count)
	}
	return samplesUs, count, ewmaUs
}

// EventsExecuted sums fired events across every engine the tester drives.
func (t *Tester) EventsExecuted() uint64 {
	n := t.Eng.Executed()
	for _, e := range t.partEngs {
		n += e.Executed()
	}
	return n
}
