package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/obs"
	"repro/internal/products"
	"repro/internal/report"
)

// faultScenario is the shipped scenario the campaign's fault sweep
// runs, relative to the checkout root.
const faultScenario = "examples/faults/sensor-outage.json"

// campaignDigests are the sha256 digests of the full-size campaign's
// report (report.CampaignReport of the finished directory) per seed.
var campaignDigests = map[int64]string{
	11: "58efb27b8828a3862411809e1b4d2f33b7b34a768558074189a0cb0e99b54781",
	12: "eaa030f70128d8c55e99652eaca41c818cf8c8bb05c72eccb83bc4418db254c4",
}

// campaignWL is a durable campaign of short experiments — sensitivity
// sweep points and fault-severity points for every product, each on its
// own testbed — fanned out on every core. It is the workload dominated
// by parallel fan-out, per-experiment set-up, the fault harness and
// journal/result commits.
type campaignWL struct {
	*env
	field []products.Spec
	dir   string
	// fs and reg instrument the traced pass; nil in timed passes.
	fs  fsio.FS
	reg *obs.Registry
}

func (w *campaignWL) spec() *campaign.Spec {
	return &campaign.Spec{
		Name:           "e2ebench",
		Seed:           w.seed,
		Quick:          w.size.Quick,
		SweepPoints:    w.size.SweepPoints,
		FaultScenarios: []string{filepath.Join(w.root, faultScenario)},
		FaultPoints:    w.size.FaultPoints,
	}
}

func (w *campaignWL) workers() int { return runtime.NumCPU() }

func (w *campaignWL) setup(ctx context.Context) error {
	w.field = products.All()
	return instantiateField(w.seed, w.field)
}

func (w *campaignWL) prepare(ctx context.Context) error {
	dir, err := w.env.dir("campaign")
	if err != nil {
		return err
	}
	w.dir = dir
	return campaign.SavePlan(dir, w.spec())
}

func (w *campaignWL) discard() error { return nil }

func (w *campaignWL) pass(ctx context.Context) (passOut, error) {
	exps, err := w.spec().Plan()
	if err != nil {
		return passOut{}, err
	}
	out := passOut{attempted: len(exps)}
	r := &campaign.Runner{Dir: w.dir, Workers: w.workers(), FS: w.fs, Obs: w.reg}
	start := time.Now()
	oc, err := r.Run(ctx)
	out.wall = time.Since(start)
	if err == nil && (oc.Completed != len(exps) || len(oc.Failed) > 0) {
		err = fmt.Errorf("campaign committed %d of %d experiments (failed: %v)", oc.Completed, len(exps), oc.Failed)
	}
	if oc != nil {
		out.failed = len(exps) - oc.Completed
	}
	if err != nil {
		return out, err
	}
	out.ops = float64(oc.Completed)
	text, err := campaignReport(w.dir)
	if err != nil {
		out.failed = out.attempted
		return out, err
	}
	out.digest = digest(text)
	out.note = fmt.Sprintf("%d experiments on %d workers, report sha256 %s", oc.Completed, r.Workers, out.digest[:12])
	return out, nil
}

func (w *campaignWL) finalCheck(ctx context.Context, d string) error {
	want, ok := campaignDigests[w.seed]
	if !ok || w.size != fullSizes() {
		return nil
	}
	if d != want {
		return fmt.Errorf("campaign report sha256 %s, want %s", d, want)
	}
	return nil
}

// campaignReport renders a finished campaign directory's report.
func campaignReport(dir string) ([]byte, error) {
	st, err := campaign.Load(dir)
	if err != nil {
		return nil, err
	}
	if !st.Complete() {
		return nil, fmt.Errorf("campaign %s: %d of %d experiments complete", dir, st.Done(), len(st.Experiments))
	}
	var b bytes.Buffer
	if err := report.CampaignReport(&b, st, core.StandardRegistry()); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
