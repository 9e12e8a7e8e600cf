// Command perfbench is the repository benchmark. It runs one workload of
// the Marlin tester from a seed for a fixed host-time budget, checks that
// every operation's simulated outputs are correct, and prints the
// workload's metrics. All timings are host time; simulated statistics are
// deterministic and serve as correctness data.
//
//	perfbench --workload fig10|fabric-incast --seed N --seconds S --trace 0|1
//
// With --trace 0 the final line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 a CPU profile is taken of every
// other block of iterations and the JSON holds the per-layer metrics.
// BENCHMARK.json at the repository root defines the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"marlin"
	"marlin/internal/sim"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	// iteration runs iteration i and returns its operations.
	iteration func(i int) ([]opResult, error)
	// probe assembles one extra tester, discarded, as a set-up sample.
	probe  func(i int) (assembly, error)
	probes int
	// minIters iterations run whatever the budget; the sim_digest covers
	// their outputs.
	minIters int
	// cycle > 0: iteration i replays the inputs of iteration i % cycle and
	// must reproduce its outputs exactly. 0: inputs never repeat.
	cycle int
}

func workloads(seed uint64) map[string]workloadDef {
	shards := min(2, runtime.NumCPU())
	algos := []string{"dctcp", "dcqcn"}
	// fabric-incast's traffic, and so its cost, depends strongly on the
	// seed through ECMP; each run cycles over a few seeds derived from
	// the one given, so that runs with different seeds do similar work.
	const fabricSeeds = 5
	fabricSeed := func(i int) uint64 { return marlin.DeriveSeed(seed, fmt.Sprintf("fabric-incast/%d", i%fabricSeeds)) }
	return map[string]workloadDef{
		"fig10": {
			iteration: func(int) ([]opResult, error) {
				var ops []opResult
				for k, algo := range algos {
					if k > 0 {
						settle()
					}
					op, _, err := fig10Op(seed, 1, algo)
					if err != nil {
						return nil, err
					}
					ops = append(ops, op)
				}
				return ops, nil
			},
			probe: func(i int) (assembly, error) {
				t, err := setupFig10(seed, 1, algos[i%2])
				if err != nil {
					return assembly{}, err
				}
				return t.asm, nil
			},
			probes:   10,
			minIters: 2,
			cycle:    1,
		},
		"fabric-incast": {
			iteration: func(i int) ([]opResult, error) {
				op, err := fabricOp(fabricSeed(i), shards, sim.Time(10*sim.Millisecond))
				return []opResult{op}, err
			},
			probe: func(i int) (assembly, error) {
				_, asm, err := setupFabric(fabricSeed(i), shards)
				return asm, err
			},
			probes:   10,
			minIters: fabricSeeds,
			cycle:    fabricSeeds,
		},
	}
}

// traceBlock is the host time of one traced or untraced block of
// iterations in a --trace 1 run. Profiles are started and stopped only
// between blocks: stopping one waits for the profile writer.
const traceBlock = 2 * time.Second

type iterResult struct {
	ops    []opResult
	span   span
	traced bool
}

func main() {
	name := flag.String("workload", "", "workload: fig10 or fabric-incast")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 30, "host seconds to measure")
	trace := flag.Int("trace", 0, "1 takes CPU profiles and reports per-layer metrics")
	flag.Parse()
	w, ok := workloads(*seed)[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fig10|fabric-incast --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := run(*name, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, w workloadDef, seed uint64, budget time.Duration, trace bool) error {
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%.0f trace=%v nproc=%d go=%s\n",
		name, seed, budget.Seconds(), trace, runtime.NumCPU(), runtime.Version())
	start := now()
	gcStart, busyStart := gcSeconds()

	var setups []float64
	for i := 0; i < w.probes; i++ {
		settle()
		asm, err := w.probe(i)
		if err != nil {
			return err
		}
		setups = append(setups, asm.setup)
	}

	prof := &profiler{flat: newFlatProfile()}
	var iters []iterResult
	var walls []float64
	traced := 0
	blockStart := now()
	for i := 0; ; i++ {
		// Stop before an iteration that would overrun the budget, once the
		// minimum has run and, when tracing, a traced iteration too.
		over := start.since().wall+median(walls) > budget.Seconds()
		if over && i >= w.minIters && (!trace || traced > 0) {
			break
		}
		if trace && i > 0 && blockStart.since().wall >= traceBlock.Seconds() {
			if err := prof.toggle(); err != nil {
				return err
			}
			blockStart = now()
		}
		settle()
		t0 := now()
		ops, err := w.iteration(i)
		if err != nil {
			return err
		}
		iters = append(iters, iterResult{ops: ops, span: t0.since(), traced: prof.on})
		walls = append(walls, iters[i].span.wall)
		if prof.on {
			traced++
		}
	}
	if err := prof.stop(); err != nil {
		return err
	}
	gcEnd, busyEnd := gcSeconds()
	gcPct := 0.0
	if busyEnd > busyStart {
		gcPct = 100 * (gcEnd - gcStart) / (busyEnd - busyStart)
	}

	// Correctness: every operation's own checks, plus exact replay where
	// inputs repeat.
	attempted, failed := 0, 0
	var digests []string
	for i, it := range iters {
		for k := range it.ops {
			op := &it.ops[k]
			if w.cycle > 0 && i >= w.cycle && op.fail == nil && op.digest != iters[i%w.cycle].ops[k].digest {
				op.fail = fmt.Errorf("iteration %d op %d: outputs differ from iteration %d", i, k, i%w.cycle)
			}
			attempted++
			if op.fail != nil {
				failed++
				fmt.Printf("# FAIL %v\n", op.fail)
			}
			if i < w.minIters {
				digests = append(digests, op.digest)
			}
		}
	}
	fmt.Printf("sim_digest %s seed=%d %s\n", name, seed, digestOf(digests))

	var measured []iterResult // the untraced iterations time the layers
	for _, it := range iters {
		if !it.traced {
			measured = append(measured, it)
		}
		for _, op := range it.ops {
			setups = append(setups, op.setup)
		}
	}
	fmt.Printf("# iterations %d (%d traced), operations %d, set-up samples %d\n",
		len(iters), len(iters)-len(measured), attempted, len(setups))
	if len(iters) <= 20 {
		for i, it := range iters {
			fmt.Printf("# iteration %d: %.4f s elapsed, %.4f CPU s, traced=%v\n", i, it.span.wall, it.span.cpu, it.traced)
		}
	}

	var m []metric
	if trace {
		m = layerMetrics(measured, iters, prof.flat, gcPct)
	} else {
		m = endToEndMetrics(iters, setups)
	}
	for _, x := range m {
		fmt.Printf("metric %-28s %.6g %s\n", x.name, x.value, x.unit)
	}
	return printResult(failed == 0, attempted, failed, m)
}

type metric struct {
	name  string
	value float64
	unit  string
}

// pktRate is the packet rate of a set of iterations on one clock: DATA
// packets per second, the median over Run steps.
func pktRate(iters []iterResult, clock func(span) float64) float64 {
	var perStep []float64
	for _, it := range iters {
		for _, op := range it.ops {
			for _, st := range op.steps {
				if t := clock(st.span); t > 0 {
					perStep = append(perStep, float64(st.pkts)/t)
				}
			}
		}
	}
	return median(perStep)
}

func wallOf(s span) float64 { return s.wall }
func cpuOf(s span) float64  { return s.cpu }

// medianOf returns the median iteration time on one clock.
func medianOf(iters []iterResult, clock func(span) float64) float64 {
	xs := make([]float64, len(iters))
	for i, it := range iters {
		xs[i] = clock(it.span)
	}
	return median(xs)
}

// endToEndMetrics are timed in process CPU seconds, which on a shared
// machine vary far less from run to run than elapsed seconds do.
func endToEndMetrics(iters []iterResult, setups []float64) []metric {
	return []metric{
		{"cpu_s", medianOf(iters, cpuOf), "s"},
		{"setup_s", median(setups), "s"},
		{"data_pkts_per_cpu_s", pktRate(iters, cpuOf), "1/s"},
		{"max_rss_mb", maxRSSMB(), "MB"},
	}
}

func layerMetrics(measured, all []iterResult, prof *flatProfile, gcPct float64) []metric {
	// Counters are simulated, so every iteration contributes; host times
	// come from the untraced iterations only.
	var c counters
	var runMallocs, runBytes uint64
	var traced []iterResult
	for _, it := range all {
		if it.traced {
			traced = append(traced, it)
		}
		for _, op := range it.ops {
			c.add(op.c)
			runMallocs += op.runMallocs
			runBytes += op.runBytes
		}
	}
	var deploys, setupAlloc, ideal, cdf []float64
	var shardedRun float64
	var rounds uint64
	for _, it := range measured {
		var itIdeal, itCDF float64
		for _, op := range it.ops {
			deploys = append(deploys, op.deploy)
			setupAlloc = append(setupAlloc, float64(op.setupAlloc))
			itIdeal += op.ideal
			itCDF += op.cdf
			if op.c.Rounds > 0 {
				shardedRun += op.run
				rounds += op.c.Rounds
			}
		}
		ideal = append(ideal, itIdeal)
		cdf = append(cdf, itCDF)
	}
	n := float64(len(all))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	overhead := 0.0
	if len(traced) > 0 && len(measured) > 0 {
		overhead = 100 * (medianOf(traced, cpuOf)/medianOf(measured, cpuOf) - 1)
	}
	m := []metric{
		{"wall_s", medianOf(measured, wallOf), "s"},
		{"data_pkts_per_s", pktRate(measured, wallOf), "1/s"},
		{"sim.events", float64(c.Events) / n, "count"},
		{"sim.events_per_pkt", ratio(float64(c.Events), float64(c.Pkts)), "count"},
		{"netem.drops", float64(c.NetDrops) / n, "count"},
		{"fpga.sched_useful_ratio", ratio(float64(c.ScheTx), float64(c.ScheTx+c.SchedWasted)), "ratio"},
		{"fpga.rtx_tx", float64(c.RtxTx) / n, "count"},
		{"tofino.sche_drops", float64(c.ScheDrops), "count"},
		{"shard.rounds", float64(c.Rounds) / n, "count"},
		{"shard.carried_per_round", ratio(float64(c.Carried), float64(c.Rounds)), "count"},
		{"shard.round_us", 1e6 * ratio(shardedRun, float64(rounds)), "us"},
		{"aqm.marks", float64(c.AQMMarks) / n, "count"},
		{"measure.ideal_ms", 1e3 * median(ideal), "ms"},
		{"measure.cdf_ms", 1e3 * median(cdf), "ms"},
		{"controlplane.deploy_ms", 1e3 * median(deploys), "ms"},
		{"setup.alloc_mb", median(setupAlloc) / (1 << 20), "MB"},
		{"runtime.gc_pct", gcPct, "%"},
		{"run.allocs_per_pkt", ratio(float64(runMallocs), float64(c.Pkts)), "count"},
		{"run.bytes_per_pkt", ratio(float64(runBytes), float64(c.Pkts)), "B"},
		{"trace.overhead_pct", overhead, "%"},
		{"trace.samples_s", prof.total / 1e9, "s"},
	}
	for _, l := range profiledLayers {
		m = append(m, metric{l + ".self_pct", 100 * ratio(prof.layer[l], prof.total), "%"},
			metric{l + ".charged_pct", 100 * ratio(prof.charged[l], prof.total), "%"})
	}
	for _, p := range profiledPhases {
		m = append(m, metric{"phase." + p + "_pct", 100 * ratio(prof.phase[p], prof.total), "%"})
	}
	// Anything the fixed lists miss still shows in the text report.
	var rest []string
	for l := range prof.layer {
		if !slices.Contains(profiledLayers, l) {
			rest = append(rest, l)
		}
	}
	slices.Sort(rest)
	for _, l := range rest {
		fmt.Printf("# unlisted layer %s %.2f%%\n", l, 100*ratio(prof.layer[l], prof.total))
	}
	return m
}

// profiledLayers are the packages flat CPU time is attributed to: the
// internal/<layer> packages, the Go runtime, the benchmark (bench), and
// the rest of the standard library (other).
var profiledLayers = []string{
	"sim", "netem", "tofino", "fpga", "cc", "aqm", "fabric", "shard", "measure",
	"packet", "core", "workload", "faults", "controlplane", "runtime", "bench", "other",
}

// profiledPhases are the benchmark-side pprof labels; "unlabeled" is time
// on goroutines without one, such as the garbage collector's workers.
var profiledPhases = []string{"deploy", "run", "readout", "measure", "unlabeled"}

// gcSeconds reads the runtime's cumulative CPU estimates: seconds spent
// in the garbage collector, and seconds not idle.
func gcSeconds() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	for _, x := range s {
		if x.Value.Kind() != metrics.KindFloat64 {
			return 0, 0
		}
	}
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// settle collects the heap before an operation, so that each starts from
// the same state instead of inheriting the previous one's garbage: the
// timings then vary less, and max_rss_mb is one operation's footprint.
func settle() { runtime.GC() }

// maxRSSMB reports the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func printResult(correct bool, attempted, failed int, m []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, x := range m {
		out.Metrics[x.name] = value{x.value, x.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}
