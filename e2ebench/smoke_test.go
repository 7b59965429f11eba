package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// manifest is the part of BENCHMARK.json the result line must match.
type manifest struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadManifest(t *testing.T) manifest {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// sameNames checks the result carries exactly the declared metrics,
// each with its declared unit.
func sameNames(t *testing.T, got metrics, want []struct{ Name, Unit string }) {
	t.Helper()
	seen := map[string]bool{}
	for _, w := range want {
		seen[w.Name] = true
		if g, ok := got[w.Name]; !ok {
			t.Errorf("metric %s missing", w.Name)
		} else if g.Unit != w.Unit {
			t.Errorf("metric %s unit %q, declared %q", w.Name, g.Unit, w.Unit)
		}
	}
	var extra []string
	for n := range got {
		if !seen[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("undeclared metrics %v", extra)
	}
}

// tinySizes shrink every workload to a smoke test.
func tinySizes() sizes {
	return sizes{
		Quick: true, SweepPoints: 2, FaultPoints: 2,
		Streams: 2, TraceSeconds: 8, TracePps: 60, ChunkBytes: 16 << 10,
		ScaleSegments: 2, ScaleHosts: 4, ScaleDuration: 300 * time.Millisecond,
	}
}

// tinyEnv runs workloads at smoke-test size in a temporary directory.
func tinyEnv(t *testing.T) *env {
	return &env{seed: 11, root: "..", work: t.TempDir(), size: tinySizes(), log: io.Discard}
}

func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, err := runTimed(context.Background(), tinyEnv(t), name, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("result %+v", res)
			}
			sameNames(t, res.Metrics, loadManifest(t).EndToEnd)
			for m, v := range res.Metrics {
				if v.Value <= 0 {
					t.Errorf("metric %s = %v, want > 0", m, v.Value)
				}
			}
		})
	}
}

func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every layer")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, err := runTraced(context.Background(), tinyEnv(t), name)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("result %+v", res)
			}
			sameNames(t, res.Metrics, loadManifest(t).PerLayer)
			if c := res.Metrics["eval.coverage"].Value; c < 0.9 {
				t.Errorf("eval.coverage %v, want >= 0.9", c)
			}
			var cpu float64
			for _, m := range cpuModules {
				cpu += res.Metrics["cpu."+m+"_s"].Value
			}
			if total := res.Metrics["cpu.total_s"].Value; total <= 0 || cpu < 0.95*total || cpu > 1.05*total {
				t.Errorf("cpu.* sum %.3fs, profile total %.3fs", cpu, total)
			}
		})
	}
}
