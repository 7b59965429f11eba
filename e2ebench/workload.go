package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/products"
	"repro/internal/simtime"
)

// env is what every workload shares: the seed its inputs come from,
// where the checkout is, where it may write, and how big it runs.
type env struct {
	seed int64
	root string // checkout root; examples/ is read from here
	work string // this run's scratch directory inside the checkout
	size sizes
	log  io.Writer
	// setupBatch is how many fresh processes time the set-up before
	// every pass and after the last; 0 times the in-process set-up
	// instead.
	setupBatch int
}

// dir makes a fresh directory under the run's scratch directory.
func (e *env) dir(name string) (string, error) {
	d := filepath.Join(e.work, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// The workloads' shape, the same at every size.
const (
	daemonConns      = 2            // client connections of the daemon workload
	scaleProduct     = "TrueSecure" // the product the at-scale run simulates
	scaleShards      = 1            // executors of the timed at-scale pass
	scaleCheckShards = 2            // executors its report and speed-up are compared at
)

// sizes fixes how much work one pass of each workload does.
type sizes struct {
	Quick         bool          `json:"quick"` // eval's smoke-test scale
	SweepPoints   int           `json:"sweep_points"`
	FaultPoints   int           `json:"fault_points"`
	Streams       int           `json:"streams"`
	TraceSeconds  float64       `json:"trace_seconds"`
	TracePps      float64       `json:"trace_pps"`
	ChunkBytes    int           `json:"chunk_bytes"`
	ScaleSegments int           `json:"scale_segments"`
	ScaleHosts    int           `json:"scale_hosts"`
	ScaleDuration time.Duration `json:"scale_duration_ns"`
}

func fullSizes() sizes {
	return sizes{
		SweepPoints: 5, FaultPoints: 3,
		Streams: 8, TraceSeconds: 60, TracePps: 600, ChunkBytes: 64 << 10,
		ScaleSegments: 8, ScaleHosts: 40, ScaleDuration: 5 * time.Second,
	}
}

// workload is one end-to-end job a user of the harness waits for.
type workload interface {
	// setup is the program's once-per-process set-up (the field built
	// and every product instantiated once).
	setup(ctx context.Context) error
	// prepare readies one pass: fresh directories, a saved plan, an
	// opened service. Counted in setup_s, never in wall_s.
	prepare(ctx context.Context) error
	// pass runs the timed phase once and checks its output.
	pass(ctx context.Context) (passOut, error)
	// discard releases what prepare made.
	discard() error
	// finalCheck runs the run-level output checks after the last pass,
	// given the digest every pass produced.
	finalCheck(ctx context.Context, digest string) error
}

// inputMaker is a workload with inputs of its own to generate before
// its first pass. Generating them is the benchmark's work, not the
// program's, so neither setup_s nor wall_s includes it.
type inputMaker interface{ generateInputs() error }

func generateInputs(w workload) error {
	if im, ok := w.(inputMaker); ok {
		return im.generateInputs()
	}
	return nil
}

// passOut is one timed pass's outcome.
type passOut struct {
	wall      time.Duration
	ops       float64 // the workload's operations, for ops_per_s
	attempted int
	failed    int
	digest    string // hash of the pass's deterministic output
	note      string
}

var workloads = map[string]func(e *env) workload{
	"scorecard": func(e *env) workload { return &scorecardWL{env: e} },
	"campaign":  func(e *env) workload { return &campaignWL{env: e} },
	"daemon":    func(e *env) workload { return &daemonWL{env: e} },
	"atscale":   func(e *env) workload { return &atscaleWL{env: e} },
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// instantiateField is the shared product set-up: every product's IDS
// built once, which compiles and caches its signature corpora.
func instantiateField(seed int64, field []products.Spec) error {
	for _, spec := range field {
		if _, err := spec.Instantiate(simtime.New(seed)); err != nil {
			return fmt.Errorf("instantiating %s: %w", spec.Name, err)
		}
	}
	return nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
