package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"testing"
	"time"

	"marlin"
	"marlin/internal/sim"
)

// The fig10 workload must be the fig10 experiment: same completions and
// throughput at the same seed and scale.
func TestFig10MatchesExperiment(t *testing.T) {
	const seed, scale = 7, 0.25
	res, err := marlin.RunExperiment("fig10", marlin.ExperimentOptions{Scale: scale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"dctcp", "dcqcn"} {
		op, out, err := fig10Op(seed, scale, algo)
		if err != nil {
			t.Fatal(err)
		}
		if op.fail != nil {
			t.Errorf("%s: %v", algo, op.fail)
		}
		if got, want := float64(out.Completions), res.Metrics[algo+"_completions"]; got != want {
			t.Errorf("%s completions = %v, experiment has %v", algo, got, want)
		}
		if got, want := out.ThroughputGbps, res.Metrics[algo+"_throughput_gbps"]; got != want {
			t.Errorf("%s throughput = %v Gbps, experiment has %v", algo, got, want)
		}
		for i, p := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99} {
			key := fmt.Sprintf("%s_p%g_slowdown", algo, p*100)
			if got, want := out.Slowdowns[i], res.Metrics[key]; got != want {
				t.Errorf("%s = %v, experiment has %v", key, got, want)
			}
		}
	}
}

// fabric-incast's simulated outputs must not depend on the shard count.
func TestFabricIncastShardInvariant(t *testing.T) {
	const seed = 3
	horizon := sim.Time(3 * sim.Millisecond)
	var digests []string
	for _, shards := range []int{1, 2} {
		op, err := fabricOp(seed, shards, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if op.fail != nil {
			t.Errorf("shards=%d: %v", shards, op.fail)
		}
		if op.c.Rounds == 0 {
			t.Errorf("shards=%d ran no shard rounds", shards)
		}
		digests = append(digests, op.digest)
	}
	if digests[0] != digests[1] {
		t.Errorf("sim digest differs: shards=1 %s, shards=2 %s", digests[0], digests[1])
	}
}

func TestFlatProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	phase("spin", func() {
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			x++
		}
	})
	pprof.StopCPUProfile()
	fp := newFlatProfile()
	if err := fp.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if fp.total == 0 || fp.phase["spin"] < fp.total/2 {
		t.Errorf("spin phase has %v of %v ns", fp.phase["spin"], fp.total)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"marlin/internal/sim.(*Engine).advance":     "sim",
		"marlin/internal/netem.(*Link).drain.func1": "netem",
		"runtime.mallocgc":                          "runtime",
		"internal/runtime/maps.(*Map).getWithKey":   "runtime",
		"main.fig10Op":                              "bench",
		"sort.insertionSortCmpFunc[...]":            "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
