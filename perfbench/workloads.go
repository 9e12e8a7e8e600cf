package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"marlin/internal/controlplane"
	"marlin/internal/core"
	"marlin/internal/measure"
	"marlin/internal/packet"
	"marlin/internal/sim"
	"marlin/internal/workload"
)

// counters are the per-layer readouts of one operation, taken from the
// tester's public accessors after Run.
type counters struct {
	Pkts        uint64 // switch DATA packets emitted
	Events      uint64 // simulation events fired
	NetDrops    uint64 // tested-network queue drops
	ScheTx      uint64 // FPGA scheduler slots that sent
	SchedWasted uint64 // FPGA scheduler slots that found no eligible flow
	RtxTx       uint64 // FPGA retransmissions
	ScheDrops   uint64 // switch register-queue overflows
	Rounds      uint64 // shard barrier rounds
	Carried     uint64 // packets carried across a shard boundary
	AQMMarks    uint64 // CE marks applied by AQM disciplines
}

func (c *counters) add(o counters) {
	c.Pkts += o.Pkts
	c.Events += o.Events
	c.NetDrops += o.NetDrops
	c.ScheTx += o.ScheTx
	c.SchedWasted += o.SchedWasted
	c.RtxTx += o.RtxTx
	c.ScheDrops += o.ScheDrops
	c.Rounds += o.Rounds
	c.Carried += o.Carried
	c.AQMMarks += o.AQMMarks
}

// span is a host-time interval measured two ways: elapsed seconds, and
// the CPU seconds the process used. CPU time leaves out the time a shared
// machine's hypervisor gives the processor to someone else.
type span struct{ wall, cpu float64 }

// stamp is a point in host time. The benchmark reads the host clock only
// through now and since; the simulations it drives never see it.
type stamp struct {
	at  time.Time
	cpu float64
}

func now() stamp {
	return stamp{time.Now(), cpuSeconds()} //marlin:allow wallclock -- the benchmark measures host time
}

func (s stamp) since() span {
	return span{time.Since(s.at).Seconds(), cpuSeconds() - s.cpu} //marlin:allow wallclock -- the benchmark measures host time
}

// cpuSeconds reads the user and system CPU time of the whole process.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// step is one call of Run: the DATA packets it emitted and its host time.
type step struct {
	pkts uint64
	span span
}

// opResult is one operation: one tester run.
type opResult struct {
	setup  float64 // tester assembly (Deploy plus installing the traffic), CPU seconds
	deploy float64 // Deploy alone, elapsed seconds
	run    float64 // inside Run, elapsed seconds
	steps  []step  // Run, in steps

	setupAlloc uint64 // heap bytes allocated during set-up
	runMallocs uint64 // heap objects allocated during Run
	runBytes   uint64 // heap bytes allocated during Run

	// fig10's measurement phases, elapsed seconds.
	ideal, cdf float64

	c      counters
	digest string // hash of the operation's simulated outputs
	fail   error  // why the operation's outputs are wrong, if they are
}

// phase runs fn under a pprof "phase" label and returns its host time.
func phase(name string, fn func()) span {
	start := now()
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { fn() })
	return start.since()
}

// assembly times one tester set-up: Deploy, then install, which adds the
// traffic. It records heap bytes allocated across both.
type assembly struct {
	setup  float64 // CPU seconds
	deploy float64 // elapsed seconds
	alloc  uint64
}

func assemble(spec controlplane.Spec, install func(*sim.Engine, *core.Tester) error) (*core.Tester, assembly, error) {
	var a assembly
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng := sim.NewEngine()
	var tr *core.Tester
	var err error
	a.setup = phase("deploy", func() {
		start := now()
		tr, err = spec.Deploy(eng)
		a.deploy = start.since().wall
		if err == nil {
			err = install(eng, tr)
		}
	}).cpu
	runtime.ReadMemStats(&after)
	a.alloc = after.TotalAlloc - before.TotalAlloc
	return tr, a, err
}

// runTimed runs the tester to until and fills the op's run timings and
// allocation counts. A non-zero slice runs it in steps of that much
// simulated time, each a packet-rate sample; otherwise in one step.
func runTimed(tr *core.Tester, until sim.Time, slice sim.Duration, op *opResult) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	op.run = phase("run", func() {
		for at, pkts := tr.Eng.Now(), tr.PipelineCounters().DataTx; at < until; {
			next := until
			if slice > 0 && at.Add(slice) < until {
				next = at.Add(slice)
			}
			start := now()
			tr.Run(next)
			sent := tr.PipelineCounters().DataTx
			op.steps = append(op.steps, step{sent - pkts, start.since()})
			at, pkts = next, sent
		}
	}).wall
	runtime.ReadMemStats(&after)
	op.runMallocs = after.Mallocs - before.Mallocs
	op.runBytes = after.TotalAlloc - before.TotalAlloc
}

// readout collects the tester's registers and loss report, the per-layer
// counters, and the conservation verdict.
func readout(tr *core.Tester, op *opResult) (controlplane.Snapshot, controlplane.LossReport, []measure.FCTRecord) {
	var snap controlplane.Snapshot
	var loss controlplane.LossReport
	var fcts []measure.FCTRecord
	phase("readout", func() {
		snap = controlplane.ReadRegisters(tr)
		loss = controlplane.ReadLosses(tr)
		fcts = tr.FCTs.Records()
		st := tr.ShardStats()
		op.c = counters{
			Pkts:        snap.Switch.DataTx,
			Events:      tr.EventsExecuted(),
			NetDrops:    loss.NetworkDrops,
			ScheTx:      snap.NIC.ScheTx,
			SchedWasted: snap.NIC.SchedWasted,
			RtxTx:       snap.NIC.RtxTx,
			ScheDrops:   snap.Switch.ScheDrops,
			Rounds:      st.Rounds,
			Carried:     st.Carried,
		}
		for _, sw := range snap.Network {
			for _, p := range sw.Ports {
				if p.AQM != nil {
					op.c.AQMMarks += p.AQM.Marks
				}
			}
		}
		if err := checkConservation(snap, loss); err != nil {
			op.fail = err
		}
	})
	return snap, loss, fcts
}

// fig10Test is one assembled fig10 tester with its closed-loop traffic
// installed: a single switch, 12 ports x 48 WebSearch flows per port at
// scale 1, step ECN at 65 packets, 4 MB queues, built like the fig10
// experiment. Every arrival is recorded for the ideal-sharing baseline.
type fig10Test struct {
	tr       *core.Tester
	asm      assembly
	horizon  sim.Time
	arrivals []fig10Arrival
	startErr error
}

type fig10Arrival struct {
	port int
	a    measure.Arrival
}

func setupFig10(seed uint64, scale float64, algo string) (*fig10Test, error) {
	t := &fig10Test{horizon: sim.Time(float64(12*sim.Millisecond) * scale)}
	flowsPerPort := int(48 * scale)
	spec := controlplane.Spec{
		Algorithm:        algo,
		ECNThresholdPkts: 65,
		NetQueueBytes:    4 << 20,
		DCQCNTimeScale:   10 / scale,
		Seed:             seed,
	}
	var err error
	t.tr, t.asm, err = assemble(spec, func(eng *sim.Engine, tr *core.Tester) error {
		ports := tr.Plan().DataPorts
		mtu := tr.Config().MTU
		gens := make([]*workload.Generator, ports*flowsPerPort)
		start := func(fl packet.FlowID) {
			port := int(fl) / flowsPerPort
			size, _ := gens[fl].Next()
			t.arrivals = append(t.arrivals, fig10Arrival{port, measure.Arrival{
				At:   eng.Now(),
				Bits: float64(size) * float64(packet.WireSize(mtu)) * 8,
			}})
			if err := tr.StartFlow(fl, port, port, size); err != nil && t.startErr == nil {
				t.startErr = err
			}
		}
		tr.OnComplete(func(fl packet.FlowID, _ sim.Duration) { start(fl) })
		rng := sim.NewRand(seed)
		for fl := range gens {
			gen, err := workload.NewGenerator(workload.WebSearch(), workload.ClosedLoop, 0, rng.Split())
			if err != nil {
				return err
			}
			gens[fl] = gen
		}
		for fl := range gens {
			start(packet.FlowID(fl))
		}
		return t.startErr
	})
	if err != nil {
		return nil, fmt.Errorf("fig10 %s: %w", algo, err)
	}
	return t, nil
}

// fig10Output is what a fig10 run must reproduce exactly.
type fig10Output struct {
	Algo           string
	Completions    int
	ThroughputGbps float64
	Slowdowns      []float64 // measured/ideal at p10, p25, p50, p75, p90, p99
	Snap           controlplane.Snapshot
	Loss           controlplane.LossReport
}

// fig10Op is one run of the §7.5 comprehensive test for one algorithm:
// assemble, run to the horizon, read the registers, and compare the FCT
// distribution with per-port processor sharing over the same arrivals.
func fig10Op(seed uint64, scale float64, algo string) (opResult, fig10Output, error) {
	var op opResult
	out := fig10Output{Algo: algo}
	t, err := setupFig10(seed, scale, algo)
	if err != nil {
		return op, out, err
	}
	tr := t.tr
	op.setup, op.deploy, op.setupAlloc = t.asm.setup, t.asm.deploy, t.asm.alloc
	runTimed(tr, t.horizon, sim.Millisecond, &op)
	if t.startErr != nil {
		return op, out, fmt.Errorf("fig10 %s: start flow: %w", algo, t.startErr)
	}
	snap, loss, _ := readout(tr, &op)
	out.Snap, out.Loss = snap, loss

	var idealFCTs []float64
	op.ideal = phase("measure", func() {
		for port := 0; port < tr.Plan().DataPorts; port++ {
			var portArr []measure.Arrival
			for _, ar := range t.arrivals {
				if ar.port == port {
					portArr = append(portArr, ar.a)
				}
			}
			for i, d := range measure.ProcessorSharingFCT(portArr, tr.Config().PortRate) {
				if d > 0 && portArr[i].At.Add(d) <= t.horizon {
					idealFCTs = append(idealFCTs, d.Microseconds())
				}
			}
		}
	}).wall
	op.cdf = phase("measure", func() {
		measured := measure.NewCDF(tr.FCTs.FCTs())
		ideal := measure.NewCDF(idealFCTs)
		for _, p := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99} {
			out.Slowdowns = append(out.Slowdowns, measured.Percentile(p)/ideal.Percentile(p))
		}
		out.Completions = measured.Len()
	}).wall
	out.ThroughputGbps = float64(snap.Switch.DataTxBytes) * 8 / sim.Duration(t.horizon).Seconds() / 1e9
	if op.fail == nil && (out.Completions == 0 || len(idealFCTs) == 0) {
		op.fail = fmt.Errorf("fig10 %s: no completed flows", algo)
	}
	op.digest = digestOf(out)
	return op, out, nil
}

// fabricIncastSpec is the fabric-incast tester: a k=4 fat-tree with
// DualPI2 on every egress (tuned to data-center delays, as in the l4s
// example), a 3:1 incast storm into port 1 every millisecond, and one
// aggregation uplink down for 2 ms.
func fabricIncastSpec(seed uint64, shards int) controlplane.Spec {
	return controlplane.Spec{
		Algorithm: "dctcp",
		Ports:     fabricPorts,
		Topology:  "fattree:4",
		AQM:       "dualpi2:target=10us,tupdate=50us,step=20us,shift=20us,alpha=250,beta=2500",
		Pattern:   "incast:period=1ms,fanin=3,victim=1,size=64",
		Faults:    "linkdown edge0->agg0 at 2ms for 2ms",
		Shards:    shards,
		Seed:      seed,
	}
}

const fabricPorts = 12

// fabricOutput is what a fabric-incast run must reproduce exactly, at any
// shard count.
type fabricOutput struct {
	Snap controlplane.Snapshot
	Loss controlplane.LossReport
	FCTs []measure.FCTRecord
}

// setupFabric assembles fabric-incast with one unbounded cross-pod DCTCP
// flow per port (p to p+6) under the spec's incast storm and fault.
func setupFabric(seed uint64, shards int) (*core.Tester, assembly, error) {
	tr, asm, err := assemble(fabricIncastSpec(seed, shards), func(_ *sim.Engine, tr *core.Tester) error {
		for p := 0; p < fabricPorts; p++ {
			if err := tr.StartFlow(packet.FlowID(p), p, (p+fabricPorts/2)%fabricPorts, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, asm, fmt.Errorf("fabric-incast: %w", err)
	}
	return tr, asm, nil
}

// fabricOp runs fabric-incast for horizon of simulated time.
func fabricOp(seed uint64, shards int, horizon sim.Time) (opResult, error) {
	var op opResult
	tr, asm, err := setupFabric(seed, shards)
	if err != nil {
		return op, err
	}
	op.setup, op.deploy, op.setupAlloc = asm.setup, asm.deploy, asm.alloc
	runTimed(tr, horizon, sim.Millisecond, &op)
	snap, loss, fcts := readout(tr, &op)
	out := fabricOutput{Snap: snap, Loss: loss, FCTs: fcts}
	if op.fail == nil && (len(fcts) == 0 || op.c.Pkts == 0) {
		op.fail = fmt.Errorf("fabric-incast: no traffic completed")
	}
	op.digest = digestOf(out)
	return op, nil
}
