// Package core assembles Marlin's devices into a runnable tester: the
// programmable-switch pipeline, the FPGA NIC, the 100 Gbps device
// interconnect, and an emulated tested network, wired as in Figure 1.
//
// Topology. Every test uses the paper's canonical arrangement (§7.1: "the
// sender and receiver are connected with a programmable switch via twelve
// 100 Gbps links each"): the tester's data ports send DATA through an
// intermediate switch that forwards each flow to a destination port, where
// the tester's own receiver logic generates ACKs that travel back over
// reverse links. Congestion appears wherever the flow routing concentrates
// traffic (pass-through for §7.2, fan-in for §7.3). A multi-switch
// Topology replaces the intermediate switch with a fabric.
//
// Assembly. New builds the tester from a partition plan. Each partition
// holds a pipeline and NIC sized to its data ports, their device links,
// and its share of the tested network. The default plan (Shards == 0) is
// one partition holding every port and switch on the caller's engine.
// With Shards >= 1 the plan is the topology's fabric.PartitionSpec: every
// partition gets its own engine, and a shard.Runner drives the engines in
// conservative rounds (see partition.go).
package core

import (
	"fmt"
	"strings"

	"marlin/internal/aqm"
	"marlin/internal/cc"
	"marlin/internal/fabric"
	"marlin/internal/faults"
	"marlin/internal/fpga"
	"marlin/internal/measure"
	"marlin/internal/netem"
	"marlin/internal/packet"
	"marlin/internal/shard"
	"marlin/internal/sim"
	"marlin/internal/tofino"
	"marlin/internal/workload"
)

// Config assembles a tester. Zero values select the paper's defaults.
type Config struct {
	// Algorithm is the CC module to deploy (required).
	Algorithm cc.Algorithm
	// Params is the CC parameter block (zero = cc.DefaultParams).
	Params cc.Params
	// MTU is the DATA frame size (default 1024, §3.3).
	MTU int
	// PortRate is the per-port line rate (default 100 Gbps).
	PortRate sim.Rate
	// DataPorts limits how many of the pipeline's data ports the test
	// uses (default: all the plan provides).
	DataPorts int
	// Receiver selects the switch receiver logic; defaults to TCP for
	// window algorithms and RoCE for rate algorithms.
	Receiver tofino.ReceiverMode
	// ReceiverSet forces Receiver to be honored even when it is the
	// zero value (TCPReceiver).
	ReceiverSet bool
	// LinkDelay is the one-way delay of each tested-network link
	// (default 2 us).
	LinkDelay sim.Duration
	// ECN configures threshold marking at the tested network's egress
	// queues. Mutually exclusive with AQM.
	ECN netem.ECNConfig
	// AQM deploys an active queue management discipline (RED, PIE, CoDel,
	// PI2, DualPI2) on every tested-network egress queue instead of
	// threshold marking. The zero value keeps drop-tail (+ ECN, if set).
	AQM aqm.Spec
	// NetQueueBytes bounds each tested-network egress queue
	// (default 256 KiB).
	NetQueueBytes int
	// MaxFlows bounds concurrent flows (default 65,536-capable).
	MaxFlows int
	// RegQueueDepth is the switch register-queue depth (0 = default).
	RegQueueDepth int
	// Scheduler selects the FPGA scheduler design (§5.2 vs scan).
	Scheduler fpga.SchedulerMode
	// DisableRXTimer removes ingress pacing (Challenge 3 ablation).
	DisableRXTimer bool
	// SingleRXFIFO funnels all INFO into one FIFO (§5.3 ablation).
	SingleRXFIFO bool
	// SharedQueue uses one switch register queue (§4.2 ablation).
	SharedQueue bool
	// TXTimerPPS overrides the FPGA's per-port SCHE pacing. The default
	// is the plan's per-port DATA rate; raising it overruns the switch
	// queues (Challenge 1 ablation).
	TXTimerPPS float64
	// EnableINT stamps in-band telemetry on DATA packets at every
	// tested-network hop (for INT-based CC such as HPCC).
	EnableINT bool
	// ReceiverOnFPGA moves the receiver logic from the switch to the
	// FPGA over the reserved port (Figure 2's dashed path, §4.1).
	ReceiverOnFPGA bool
	// ForwardJitter adds uniform [0, ForwardJitter] propagation jitter
	// on the tested network's egress links; jitter beyond the frame gap
	// reorders DATA packets.
	ForwardJitter sim.Duration
	// ExtraHops inserts additional store-and-forward hops on every
	// forward path (leaf/spine-depth networks); each hop adds one link
	// of LinkDelay and, with EnableINT, one telemetry stack entry.
	ExtraHops int
	// EnablePFC makes the tested network lossless: each egress queue
	// pauses its upstream links at the XOFF watermark (RoCE fabrics).
	EnablePFC bool
	// PFCXOFFBytes overrides the pause watermark (0 = half the queue).
	PFCXOFFBytes int
	// Topology replaces the canonical single switch with a multi-switch
	// fabric (internal/fabric): the tester's data ports attach as hosts
	// and flows route toward their receiver port's leaf, with
	// deterministic ECMP where the shape offers equal-cost paths. The
	// zero value keeps the §7.1 single-switch arrangement, byte for
	// byte. Mutually exclusive with ExtraHops (the fabric has real
	// hops).
	Topology fabric.Spec
	// Shards selects the partition plan. 0 builds the tester as one
	// partition on the caller's engine. Shards >= 1 partitions the Topology
	// along its natural fault domains (fabric.PartitionSpec): each
	// partition gets its own engine and slice of the tester hardware, and
	// up to Shards worker goroutines execute rounds bounded by the fabric's
	// minimum inter-partition propagation delay. Outputs are byte-identical
	// for every Shards >= 1 value and any GOMAXPROCS, but differ from
	// Shards == 0 on a topology with more than one partition. Shards >= 1
	// requires a Topology and is incompatible with EnablePFC and
	// ReceiverOnFPGA.
	Shards int
	// Seed drives all randomness.
	Seed uint64
}

// Tester is an assembled Marlin instance plus its tested network.
type Tester struct {
	// Eng is the control engine: user schedules, fault and pattern plans,
	// and monitor probes run on it. On the one-partition build every device
	// runs on it too; a partitioned build executes its events at round
	// barriers while every partition clock sits at the event's timestamp.
	Eng *sim.Engine
	// Net is the canonical single tested-network switch; nil when the
	// tester runs over a multi-switch Topology (see Fabric).
	Net  *netem.Switch
	Fab  *fabric.Fabric
	FCTs *measure.FCTRecorder

	cfg   Config
	plan  tofino.Plan
	rng   *sim.Rand
	flows map[packet.FlowID]flowRec

	parts     []*partition // partitions hosting data ports, ascending
	portPart  []int        // global data port -> index in parts
	portLocal []int        // global data port -> local port in its partition
	txLinks   []*netem.Link
	pfcs      []*netem.PFC

	userComplete func(flow packet.FlowID, fct sim.Duration)

	faultPlan faults.Plan
	faultMon  *faults.Monitor

	patternPlan workload.Plan
	patternDrv  *workload.Driver
	overloadMon *measure.OverloadMonitor

	// Partitioned-build state (nil on the one-partition build).
	runner   *shard.Runner
	partEngs []*sim.Engine
}

// flowRec is the tester's bookkeeping for one flow: where its DATA goes,
// which partition drives it, and what its FCT record needs.
type flowRec struct {
	dst   int // receiver data port
	part  int // index in parts of the TX-side partition; -1 for external flows
	size  uint32
	start sim.Time
}

// prepare validates cfg, fills in the paper's defaults, and shrinks the
// port plan to the ports actually used so validation and throughput
// accounting stay honest.
func prepare(cfg Config) (Config, tofino.Plan, error) {
	if cfg.Algorithm == nil {
		return cfg, tofino.Plan{}, fmt.Errorf("core: no CC algorithm configured")
	}
	if !cfg.Topology.IsZero() && cfg.ExtraHops > 0 {
		return cfg, tofino.Plan{}, fmt.Errorf("core: ExtraHops applies only to the canonical single-switch network; the %s fabric has real hops", cfg.Topology)
	}
	if cfg.AQM.Enabled() && cfg.ECN.Enable {
		return cfg, tofino.Plan{}, fmt.Errorf("core: AQM %s and threshold ECN are mutually exclusive marking policies", cfg.AQM.Kind)
	}
	if cfg.MTU == 0 {
		cfg.MTU = 1024
	}
	if cfg.PortRate == 0 {
		cfg.PortRate = 100 * sim.Gbps
	}
	if cfg.Params.MTU == 0 {
		cfg.Params = cc.DefaultParams(cfg.PortRate, cfg.MTU)
	}
	if cfg.LinkDelay == 0 {
		cfg.LinkDelay = sim.Micros(2)
	}
	if !cfg.ReceiverSet && cfg.Algorithm.Mode() == cc.RateMode {
		cfg.Receiver = tofino.RoCEReceiver
	}

	plan, err := tofino.NewPlan(cfg.MTU, cfg.PortRate)
	if err != nil {
		return cfg, tofino.Plan{}, err
	}
	if cfg.DataPorts == 0 || cfg.DataPorts > plan.DataPorts {
		cfg.DataPorts = plan.DataPorts
	}
	plan.DataPorts = cfg.DataPorts
	plan.Throughput = sim.Rate(int64(cfg.PortRate) * int64(cfg.DataPorts))
	return cfg, plan, nil
}

// timerPPS derives the FPGA pacing rates from the config and plan.
func timerPPS(cfg Config, plan tofino.Plan) (tx, rx float64) {
	tx = cfg.TXTimerPPS
	if tx == 0 {
		tx = plan.DataPPSPerPort
	}
	rx = plan.DataPPSPerPort
	if rx > tx {
		rx = tx
	}
	return tx, rx
}

// New builds and wires a tester: the partitions' devices first, then the
// tested network around them.
func New(eng *sim.Engine, cfg Config) (*Tester, error) {
	cfg, plan, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	pplan, err := partitionPlan(cfg)
	if err != nil {
		return nil, err
	}
	t := &Tester{
		Eng:       eng,
		FCTs:      &measure.FCTRecorder{},
		cfg:       cfg,
		plan:      plan,
		rng:       sim.NewRand(cfg.Seed),
		flows:     make(map[packet.FlowID]flowRec),
		portPart:  make([]int, cfg.DataPorts),
		portLocal: make([]int, cfg.DataPorts),
	}
	engs := []*sim.Engine{eng}
	if cfg.Shards > 0 {
		engs = make([]*sim.Engine, pplan.Parts)
		for g := range engs {
			engs[g] = sim.NewEngine()
		}
		t.partEngs = engs
	}

	// Group the data ports by partition; a partition gets one local port
	// per global port, in ascending global order. A partition of pure
	// transit switches gets no devices.
	groups := make([][]int, pplan.Parts)
	for p := 0; p < cfg.DataPorts; p++ {
		g := pplan.HostPart[p]
		groups[g] = append(groups[g], p)
	}
	for g, ports := range groups {
		if len(ports) == 0 {
			continue
		}
		part, err := t.buildPartition(g, engs[g], ports)
		if err != nil {
			return nil, err
		}
		for li, p := range ports {
			t.portPart[p] = len(t.parts)
			t.portLocal[p] = li
		}
		t.parts = append(t.parts, part)
	}

	if cfg.Topology.IsZero() {
		err = t.wireSwitch()
	} else {
		err = t.wireFabric(pplan, engs)
	}
	if err != nil {
		return nil, err
	}

	// A partitioned build's completions fire on partition goroutines
	// mid-round; defer them to the control engine so FCT recording and
	// user callbacks replay single-threaded in (time, partition, sequence)
	// order.
	for _, part := range t.parts {
		if t.runner == nil {
			part.nic.OnComplete(t.flowDone)
			continue
		}
		g := part.idx
		part.nic.OnComplete(func(flow packet.FlowID, fct sim.Duration) {
			t.runner.DeferPart(g, func() { t.flowDone(flow, fct) })
		})
	}
	return t, nil
}

// partitionPlan assigns ports and switches to partitions: the topology's
// canonical plan for Shards >= 1, else one partition holding everything.
func partitionPlan(cfg Config) (fabric.PartitionPlan, error) {
	if cfg.Shards <= 0 {
		return fabric.PartitionPlan{Parts: 1, HostPart: make([]int, cfg.DataPorts)}, nil
	}
	if cfg.Topology.IsZero() {
		return fabric.PartitionPlan{}, fmt.Errorf("core: Shards requires a multi-switch Topology (the canonical single switch has no cut to parallelize over)")
	}
	if cfg.EnablePFC {
		return fabric.PartitionPlan{}, fmt.Errorf("core: Shards and EnablePFC are incompatible (pause frames would act across partitions mid-round)")
	}
	if cfg.ReceiverOnFPGA {
		return fabric.PartitionPlan{}, fmt.Errorf("core: Shards and ReceiverOnFPGA are incompatible (the reserved-port path is not partitioned)")
	}
	return fabric.PartitionSpec(cfg.Topology, cfg.DataPorts)
}

// buildPartition builds one partition's devices on its engine: a pipeline
// and NIC sized to its ports, the device interconnect between them, and
// the FPGA receiver when the receiver logic lives on the FPGA.
func (t *Tester) buildPartition(idx int, eng *sim.Engine, ports []int) (*partition, error) {
	cfg := t.cfg
	plan := t.plan
	plan.DataPorts = len(ports)
	plan.Throughput = sim.Rate(int64(cfg.PortRate) * int64(len(ports)))
	pl, err := tofino.NewPipeline(eng, tofino.Config{
		Plan:           plan,
		QueueDepth:     cfg.RegQueueDepth,
		SharedQueue:    cfg.SharedQueue,
		Receiver:       cfg.Receiver,
		ReceiverOnFPGA: cfg.ReceiverOnFPGA,
		CNPInterval:    cfg.Params.CNPInterval,
	})
	if err != nil {
		return nil, err
	}

	txPPS, rxPPS := timerPPS(cfg, plan)
	nic, err := fpga.NewNIC(eng, fpga.Config{
		Ports:          len(ports),
		MaxFlows:       cfg.MaxFlows,
		Algorithm:      cfg.Algorithm,
		Params:         cfg.Params,
		TXTimerPPS:     txPPS,
		RXTimerPPS:     rxPPS,
		DisableRXTimer: cfg.DisableRXTimer,
		SingleRXFIFO:   cfg.SingleRXFIFO,
		Scheduler:      cfg.Scheduler,
		GoBackN:        cfg.Receiver == tofino.RoCEReceiver,
	})
	if err != nil {
		return nil, err
	}
	part := &partition{idx: idx, eng: eng, pl: pl, nic: nic}

	// Device interconnect: one 100 Gbps cable carrying SCHE one way and
	// INFO the other (§3.1).
	deviceDelay := sim.Duration(200 * sim.Nanosecond)
	part.sche = netem.NewLink(eng, netem.LinkConfig{
		Rate: cfg.PortRate, Delay: deviceDelay, QueueBytes: 1 << 20,
	}, pl.ScheIn())
	nic.ConnectSche(part.sche)
	part.info = netem.NewLink(eng, netem.LinkConfig{
		Rate: cfg.PortRate, Delay: deviceDelay, QueueBytes: 1 << 20,
	}, nic.InfoIn())
	pl.ConnectInfo(part.info)

	if cfg.ReceiverOnFPGA {
		// Reserved-port pair (§4.3): truncated DATA to the FPGA, the
		// receiver's ACK/NACK/CNP responses back to the switch.
		respLink := netem.NewLink(eng, netem.LinkConfig{
			Rate: cfg.PortRate, Delay: deviceDelay, QueueBytes: 1 << 20,
		}, pl.FPGAAckIn())
		mode := fpga.TCPReceiver
		if cfg.Receiver == tofino.RoCEReceiver {
			mode = fpga.RoCEReceiver
		}
		part.fpgaRecv = fpga.NewReceiver(eng, mode, cfg.Params.CNPInterval, respLink)
		truncLink := netem.NewLink(eng, netem.LinkConfig{
			Rate: cfg.PortRate, Delay: deviceDelay, QueueBytes: 1 << 20,
		}, part.fpgaRecv.DataIn())
		pl.ConnectRxForward(truncLink)
	}
	return part, nil
}

// dst routes a packet to its flow's receiver data port (-1: unknown flow).
func (t *Tester) dst(p *packet.Packet) int {
	if r, ok := t.flows[p.Flow]; ok {
		return r.dst
	}
	return -1
}

// wireSwitch builds the canonical tested network around the one
// partition: tester -> intermediate switch -> tester.
func (t *Tester) wireSwitch() error {
	cfg, eng, pl := t.cfg, t.Eng, t.parts[0].pl
	t.Net = netem.NewSwitch("tested-network", t.dst)
	txQueueBytes := cfg.NetQueueBytes
	if cfg.EnablePFC && txQueueBytes < 4<<20 {
		// PFC backpressure parks packets at the tester's uplinks; give
		// them room so losslessness holds end to end.
		txQueueBytes = 4 << 20
	}
	for i := 0; i < cfg.DataPorts; i++ {
		tx := netem.NewLink(eng, netem.LinkConfig{
			Rate: cfg.PortRate, Delay: cfg.LinkDelay, QueueBytes: txQueueBytes,
			EnableINT: cfg.EnableINT,
		}, t.Net)
		t.txLinks = append(t.txLinks, tx)
		pl.ConnectDataPort(i, tx)

		// The last-hop destination, preceded by any extra hops (built
		// back to front so packets traverse them in order).
		var dst netem.Node = pl.DataIn(i)
		for h := 0; h < cfg.ExtraHops; h++ {
			dst = netem.NewLink(eng, netem.LinkConfig{
				Rate: cfg.PortRate, Delay: cfg.LinkDelay,
				QueueBytes: cfg.NetQueueBytes, ECN: cfg.ECN, AQM: cfg.AQM,
				EnableINT: cfg.EnableINT,
				RNG:       t.rng.Split(),
			}, dst)
		}
		t.Net.AddPort(eng, netem.LinkConfig{
			Rate: cfg.PortRate, Delay: cfg.LinkDelay,
			QueueBytes: cfg.NetQueueBytes, ECN: cfg.ECN, AQM: cfg.AQM,
			EnableINT: cfg.EnableINT,
			Jitter:    cfg.ForwardJitter,
			RNG:       t.rng.Split(),
		}, dst)

		rev := netem.NewLink(eng, netem.LinkConfig{
			Rate: cfg.PortRate, Delay: 2 * cfg.LinkDelay, QueueBytes: 1 << 20,
		}, pl.AckIn())
		pl.ConnectAckPort(i, rev)
	}
	if cfg.EnablePFC {
		// Each tested-network egress queue pauses all tester uplinks
		// (single-priority, port-level PFC).
		for i := 0; i < cfg.DataPorts; i++ {
			q := t.Net.Port(i).Queue()
			xoff := cfg.PFCXOFFBytes
			if xoff == 0 {
				xoff = q.Capacity() / 2
			}
			pfc, err := netem.NewPFC(eng, q, t.txLinks, netem.PFCConfig{
				XOFF: xoff, XON: xoff / 2, Delay: cfg.LinkDelay,
			})
			if err != nil {
				return err
			}
			t.pfcs = append(t.pfcs, pfc)
		}
	}
	return nil
}

// wireFabric builds a multi-switch tested network around the partitions:
// each tester data port attaches as a fabric host, the destination host's
// downlink delivers into its partition's receiver logic, and the reverse
// ACK links are provisioned to the fabric's forward diameter. On a
// partitioned build each switch lives on its partition's engine, host
// endpoints on their leaf's, and trunks that cross the cut drain into
// portal slots bound once the runner exists (the lookahead is measured
// off the built fabric).
func (t *Tester) wireFabric(pplan fabric.PartitionPlan, engs []*sim.Engine) error {
	cfg := t.cfg
	sinks := make([]netem.Node, cfg.DataPorts)
	for h := range sinks {
		sinks[h] = t.parts[t.portPart[h]].pl.DataIn(t.portLocal[h])
	}
	fc := fabric.Config{
		Spec:         cfg.Topology,
		Hosts:        cfg.DataPorts,
		PortRate:     cfg.PortRate,
		LinkDelay:    cfg.LinkDelay,
		QueueBytes:   cfg.NetQueueBytes,
		ECN:          cfg.ECN,
		AQM:          cfg.AQM,
		EnableINT:    cfg.EnableINT,
		Jitter:       cfg.ForwardJitter,
		EnablePFC:    cfg.EnablePFC,
		PFCXOFFBytes: cfg.PFCXOFFBytes,
		Seed:         cfg.Seed,
		Dst:          t.dst,
		Sinks:        sinks,
	}
	var slots []*portalSlot
	if cfg.Shards > 0 {
		fc.Engines = func(swIdx int) *sim.Engine { return engs[pplan.SwitchPart[swIdx]] }
		fc.Remote = func(srcEng, dstEng *sim.Engine, dst netem.Node) netem.Remote {
			s := &portalSlot{src: srcEng, dst: dstEng, node: dst}
			slots = append(slots, s)
			return s
		}
	}
	fab, err := fabric.Build(t.Eng, fc)
	if err != nil {
		return err
	}
	t.Fab = fab

	var routers []*ackRouter
	if cfg.Shards > 0 {
		look, err := fab.MinInterPartitionDelay(pplan)
		if err != nil {
			return err
		}
		if t.runner, err = shard.New(t.Eng, engs, look, cfg.Shards); err != nil {
			return err
		}
		for _, s := range slots {
			s.r = t.runner.Portal(s.src, s.dst, s.node)
		}
		routers = t.ackRouters()
	}

	// The reverse ACK link of a partitioned build feeds its partition's
	// router, which delivers each response to the flow's TX-side pipeline
	// through the runner. The rev delay is at least the lookahead
	// (Diameter >= 1 hop), so every arrival lands beyond the round horizon.
	revDelay := sim.Duration(cfg.Topology.Diameter()) * cfg.LinkDelay
	for p := 0; p < cfg.DataPorts; p++ {
		part := t.parts[t.portPart[p]]
		part.pl.ConnectDataPort(t.portLocal[p], fab.HostUplink(p))
		t.txLinks = append(t.txLinks, fab.HostUplink(p))
		revCfg := netem.LinkConfig{Rate: cfg.PortRate, Delay: revDelay, QueueBytes: 1 << 20}
		var rev *netem.Link
		if t.runner == nil {
			rev = netem.NewLink(part.eng, revCfg, part.pl.AckIn())
		} else {
			rev = netem.NewLink(part.eng, revCfg, nil)
			rev.SetRemote(routers[t.portPart[p]])
		}
		part.pl.ConnectAckPort(t.portLocal[p], rev)
	}
	return nil
}

// PFCPauses reports pause episodes across all PFC controllers (0 when PFC
// is disabled).
func (t *Tester) PFCPauses() uint64 {
	var n uint64
	for _, p := range t.pfcs {
		n += p.Pauses()
	}
	if t.Fab != nil {
		n += t.Fab.PFCPauses()
	}
	return n
}

// Switches lists the tested network's switches: the canonical single
// switch, or every switch of the deployed fabric.
func (t *Tester) Switches() []*netem.Switch {
	if t.Fab != nil {
		return t.Fab.Switches()
	}
	return []*netem.Switch{t.Net}
}

// NetworkStats snapshots per-switch, per-port telemetry of the tested
// network (queue depth, pause state, drops, forwarded counts per hop).
func (t *Tester) NetworkStats() []netem.Stats {
	sws := t.Switches()
	out := make([]netem.Stats, len(sws))
	for i, s := range sws {
		out[i] = s.Stats()
	}
	return out
}

// ECMPPaths lists the fabric's per-path traffic counters (nil for the
// canonical single switch, which has no equal-cost choices).
func (t *Tester) ECMPPaths() []fabric.PathCounter {
	if t.Fab == nil {
		return nil
	}
	return t.Fab.ECMPPaths()
}

// Plan returns the port plan in force.
func (t *Tester) Plan() tofino.Plan { return t.plan }

// Config returns the tester's effective configuration.
func (t *Tester) Config() Config { return t.cfg }

// RNG returns the tester's seeded random stream.
func (t *Tester) RNG() *sim.Rand { return t.rng }

// ForwardLink returns the tested network's last-hop link toward receiver
// port rx; experiments attach loss/ECN scripts to it (§7.1).
func (t *Tester) ForwardLink(rx int) *netem.Link {
	if t.Fab != nil {
		return t.Fab.HostDownlink(rx)
	}
	return t.Net.Port(rx)
}

// TxLink returns the link from tester data port i into the network.
func (t *Tester) TxLink(i int) *netem.Link { return t.txLinks[i] }

// ResolveLink maps a fault-plan link name onto an emulated link
// (implementing faults.Target). "txN" is tester data port N's uplink in
// any topology. With a fabric deployed, fabric names resolve as
// fabric.ResolveLink documents ("leaf0->spine1", "host2->leaf0"). The
// canonical single switch additionally accepts "fwdN" for the forward
// link toward receiver port N.
func (t *Tester) ResolveLink(name string) (*netem.Link, error) {
	if i, ok := portAlias(name, "tx"); ok {
		if i < 0 || i >= len(t.txLinks) {
			return nil, fmt.Errorf("core: %s out of range [tx0,tx%d]", name, len(t.txLinks)-1)
		}
		return t.txLinks[i], nil
	}
	if t.Fab != nil {
		return t.Fab.ResolveLink(name)
	}
	if i, ok := portAlias(name, "fwd"); ok {
		if i < 0 || i >= t.cfg.DataPorts {
			return nil, fmt.Errorf("core: %s out of range [fwd0,fwd%d]", name, t.cfg.DataPorts-1)
		}
		return t.Net.Port(i), nil
	}
	return nil, fmt.Errorf("core: unknown link %q (single-switch names: txN, fwdN)", name)
}

// portAlias recognises prefixed port names like "tx3" or "fwd0".
func portAlias(name, prefix string) (int, bool) {
	num, ok := strings.CutPrefix(name, prefix)
	if !ok || num == "" {
		return 0, false
	}
	i := 0
	for _, c := range num {
		if c < '0' || c > '9' {
			return 0, false
		}
		i = i*10 + int(c-'0')
	}
	return i, true
}

// StallNIC gates the FPGA NIC's pacing timers (implementing
// faults.Target), every partition's NIC at once.
func (t *Tester) StallNIC(stalled bool) {
	for _, part := range t.parts {
		part.nic.SetStall(stalled)
	}
}

// InstallFaults schedules a fault plan against this tester and arms the
// recovery monitor. Call once, before running; recoveries surface in
// FaultRecoveries, controlplane snapshots, and the loss report.
func (t *Tester) InstallFaults(plan faults.Plan) (*faults.Monitor, error) {
	if t.faultMon != nil {
		return nil, fmt.Errorf("core: fault plan already installed")
	}
	if err := faults.Apply(t.Eng, t, plan); err != nil {
		return nil, err
	}
	t.faultPlan = plan
	t.faultMon = faults.NewMonitor(t.Eng, faults.MonitorConfig{}, plan,
		t.deliveredBytes,
		func() uint64 { return t.NICStats().RtxTx },
		t.ecnMarks)
	return t.faultMon, nil
}

// FaultPlan returns the installed fault plan (zero when none).
func (t *Tester) FaultPlan() faults.Plan { return t.faultPlan }

// FaultMonitor returns the armed recovery monitor, or nil.
func (t *Tester) FaultMonitor() *faults.Monitor { return t.faultMon }

// FaultRecoveries reports per-fault recovery telemetry (nil when no plan
// is installed).
func (t *Tester) FaultRecoveries() []faults.Recovery {
	if t.faultMon == nil {
		return nil
	}
	return t.faultMon.Report()
}

// BindExternalFlow routes a tester-external flow (pattern flood traffic
// injected past the NIC) toward receiver port rx, implementing
// workload.Target. The flow has no NIC or CC state: the tested network
// forwards, queues, marks, and drops its frames like any other DATA, and
// the ACKs the receiver generates are discarded at the inactive flow.
func (t *Tester) BindExternalFlow(flow packet.FlowID, rx int) error {
	if rx < 0 || rx >= t.cfg.DataPorts {
		return fmt.Errorf("core: rx port %d out of range [0,%d)", rx, t.cfg.DataPorts)
	}
	t.flows[flow] = flowRec{dst: rx, part: -1}
	return nil
}

// InjectData sends one raw DATA frame carrying the given ECN codepoint for
// a bound external flow into data port tx's uplink, implementing
// workload.Target.
func (t *Tester) InjectData(flow packet.FlowID, tx int, psn uint32, frameBytes int, ect packet.ECT) {
	t.txLinks[tx].Send(packet.NewDataECT(flow, psn, frameBytes, t.Eng.Now(), ect))
}

// InstallPatterns compiles a traffic-pattern plan onto this tester: a
// workload driver arms every pattern's arrival, storm, and flood events,
// and an overload monitor starts watching the victim port (the plan's
// explicit victim, else port 0). Call once, before running; the telemetry
// surfaces through OverloadMonitor and controlplane snapshots.
func (t *Tester) InstallPatterns(plan workload.Plan) (*measure.OverloadMonitor, error) {
	if t.patternDrv != nil {
		return nil, fmt.Errorf("core: pattern plan already installed")
	}
	drv, err := workload.Apply(t.Eng, t, plan, workload.DriverConfig{
		Ports: t.cfg.DataPorts,
		MTU:   t.cfg.MTU,
		Seed:  t.cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	victim, _ := plan.Victim() // zero value: watch port 0
	link := t.ForwardLink(victim)
	q := link.Queue()
	mon, err := measure.NewOverloadMonitor(t.Eng, measure.OverloadProbe{
		QueueBytes: q.Bytes,
		PeakBytes:  func() int { return q.Stats().MaxBacklogB },
		Delivered:  func() uint64 { return link.Stats().TxPackets },
		Dropped:    func() uint64 { return q.Stats().Drops },
	}, measure.OverloadConfig{ThresholdBytes: q.Capacity() / 2})
	if err != nil {
		return nil, err
	}
	mon.Start()
	t.patternPlan = plan
	t.patternDrv = drv
	t.overloadMon = mon
	return mon, nil
}

// PatternPlan returns the installed pattern plan (zero when none).
func (t *Tester) PatternPlan() workload.Plan { return t.patternPlan }

// PatternDriver returns the armed workload driver, or nil.
func (t *Tester) PatternDriver() *workload.Driver { return t.patternDrv }

// OverloadMonitor returns the victim-port monitor armed by
// InstallPatterns, or nil.
func (t *Tester) OverloadMonitor() *measure.OverloadMonitor { return t.overloadMon }

// deliveredBytes sums the tested network's last-hop delivered bytes — the
// goodput counter the fault monitor samples.
func (t *Tester) deliveredBytes() uint64 {
	var n uint64
	for i := 0; i < t.cfg.DataPorts; i++ {
		n += t.ForwardLink(i).Stats().TxBytes
	}
	return n
}

// ecnMarks sums CE marks across every tested-network egress queue.
func (t *Tester) ecnMarks() uint64 {
	var n uint64
	for _, s := range t.Switches() {
		st := s.Stats()
		for _, p := range st.Ports {
			n += p.ECNMarks
		}
	}
	return n
}

// ScheLink returns the first partition's FPGA->switch device link (SCHE
// direction).
func (t *Tester) ScheLink() *netem.Link { return t.parts[0].sche }

// InfoLink returns the first partition's switch->FPGA device link (INFO
// direction).
func (t *Tester) InfoLink() *netem.Link { return t.parts[0].info }

// OnComplete registers a hook invoked after each flow completion (after
// the FCT is recorded); closed-loop workloads start the next flow here.
func (t *Tester) OnComplete(fn func(flow packet.FlowID, fct sim.Duration)) {
	t.userComplete = fn
}

// StartFlow launches a flow of sizePkts MTU-sized packets from tx port to
// rx port. sizePkts == 0 runs an unbounded flow (stopped via StopFlow).
func (t *Tester) StartFlow(flow packet.FlowID, tx, rx int, sizePkts uint32) error {
	return t.startFlow(flow, tx, rx, sizePkts, nil)
}

// StartFlowCC launches a flow running a per-flow CC algorithm instead of
// the deployed default — the mixed-control coexistence case (DCTCP beside
// CUBIC through one AQM). The named algorithm must share the deployed
// module's Mode; the flow carries the algorithm's preferred ECN codepoint
// (ECT(1) for scalable controls, ECT(0) otherwise).
func (t *Tester) StartFlowCC(flow packet.FlowID, tx, rx int, sizePkts uint32, algorithm string) error {
	alg, err := cc.New(algorithm)
	if err != nil {
		return err
	}
	return t.startFlow(flow, tx, rx, sizePkts, alg)
}

// startFlow binds the flow on its TX-side pipeline, resets receiver state
// where its DATA will land, records it, and starts it on the TX-side NIC
// with alg, or the deployed module when alg is nil.
func (t *Tester) startFlow(flow packet.FlowID, tx, rx int, sizePkts uint32, alg cc.Algorithm) error {
	if rx < 0 || rx >= t.cfg.DataPorts {
		return fmt.Errorf("core: rx port %d out of range [0,%d)", rx, t.cfg.DataPorts)
	}
	if tx < 0 || tx >= t.cfg.DataPorts {
		return fmt.Errorf("core: tx port %d out of range [0,%d)", tx, t.cfg.DataPorts)
	}
	g := t.portPart[tx]
	part, rpart := t.parts[g], t.parts[t.portPart[rx]]
	if err := part.pl.BindFlow(flow, t.portLocal[tx]); err != nil {
		return err
	}
	part.pl.ResetFlow(flow)
	if rpart != part {
		rpart.pl.ResetFlow(flow)
	}
	if rpart.fpgaRecv != nil {
		rpart.fpgaRecv.Reset(flow)
	}
	t.flows[flow] = flowRec{dst: rx, part: g, size: sizePkts, start: t.Eng.Now()}
	if alg == nil {
		return part.nic.StartFlow(flow, t.portLocal[tx], sizePkts)
	}
	return part.nic.StartFlowWith(flow, t.portLocal[tx], sizePkts, alg, cc.PreferredECT(alg))
}

// StopFlow terminates a flow immediately (§7.3's staggered termination).
func (t *Tester) StopFlow(flow packet.FlowID) {
	if part := t.owner(flow); part != nil {
		part.nic.StopFlow(flow)
	}
}

func (t *Tester) flowDone(flow packet.FlowID, fct sim.Duration) {
	r := t.flows[flow]
	t.FCTs.Add(measure.FCTRecord{
		Flow:     flow,
		SizePkts: r.size,
		Start:    r.start,
		FCT:      fct,
	})
	if t.userComplete != nil {
		t.userComplete(flow, fct)
	}
}

// Run advances the simulation to the given absolute time: the single
// engine directly, or every partition engine in conservative rounds.
func (t *Tester) Run(until sim.Time) {
	if t.runner != nil {
		t.runner.Run(until)
		return
	}
	t.Eng.Run(until)
}

// GoodputBits returns the DATA bits the switch emitted for a flow.
func (t *Tester) GoodputBits(flow packet.FlowID) uint64 {
	return t.FlowTxBytes(flow) * 8
}

// TopologyDOT renders the wired test setup as a Graphviz digraph: the
// FPGA/switch device pair, the per-port forward paths through the tested
// network, and the reverse ACK paths — the picture Figure 1 draws, for
// this deployment's actual configuration.
func (t *Tester) TopologyDOT() string {
	var b strings.Builder
	b.WriteString("digraph marlin {\n  rankdir=LR;\n")
	b.WriteString("  fpga [shape=box,label=\"FPGA NIC\\n")
	fmt.Fprintf(&b, "%s, %d ports\"];\n", t.cfg.Algorithm.Name(), t.cfg.DataPorts)
	b.WriteString("  switch [shape=box,label=\"switch pipeline\\n")
	fmt.Fprintf(&b, "MTU %d, %v/port\"];\n", t.plan.MTU, t.plan.PortRate)
	b.WriteString("  fpga -> switch [label=\"SCHE 64B\"];\n")
	b.WriteString("  switch -> fpga [label=\"INFO 64B\"];\n")
	if t.Fab != nil {
		// Multi-switch fabric: every switch is its own node with live
		// per-hop counters; the tester's ports all hang off the pipeline.
		t.Fab.DOTBody(&b, func(int) string { return "switch" })
	} else {
		fmt.Fprintf(&b, "  net [shape=ellipse,label=\"tested network\\n%d+%d hops, delay %v\"];\n",
			1, t.cfg.ExtraHops, t.cfg.LinkDelay)
		for i := 0; i < t.cfg.DataPorts; i++ {
			fmt.Fprintf(&b, "  switch -> net [label=\"DATA p%d\"];\n", i)
			fmt.Fprintf(&b, "  net -> switch [label=\"ACK p%d\"];\n", i)
		}
	}
	if t.cfg.EnablePFC && t.Fab == nil {
		b.WriteString("  net -> switch [style=dashed,label=\"PFC pause\"];\n")
	}
	if t.cfg.ReceiverOnFPGA {
		b.WriteString("  switch -> fpga [style=dashed,label=\"truncated DATA (reserved port)\"];\n")
	}
	b.WriteString("}\n")
	return b.String()
}
