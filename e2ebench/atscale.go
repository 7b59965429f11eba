package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/products"
	"repro/internal/report"
)

// atscaleWL is the at-scale sharded simulation at RunShardedScale's
// default topology: the only workload that runs ShardedSim, the netsim
// Fabric and the window coordinator. The timed pass runs one executor:
// with two, every lookahead window ends at a barrier both CPUs must
// reach, so a virtual machine losing either CPU for a moment stalls the
// run: on a 2-vCPU VM its wall time spread by nearly a quarter between
// runs. The speed-up of more executors is a per-layer row.
type atscaleWL struct {
	*env
	spec products.Spec
	// reg instruments the traced pass; nil in timed passes.
	reg *obs.Registry
	// last is the last pass's result.
	last *eval.ShardedScaleResult
}

func (w *atscaleWL) config(shards int) eval.ShardedScaleConfig {
	return eval.ShardedScaleConfig{
		Seed:            w.seed,
		Segments:        w.size.ScaleSegments,
		HostsPerSegment: w.size.ScaleHosts,
		Duration:        w.size.ScaleDuration,
		Shards:          shards,
		Obs:             w.reg,
	}
}

func (w *atscaleWL) setup(ctx context.Context) error {
	spec, ok := products.Find(scaleProduct)
	if !ok {
		return fmt.Errorf("unknown product %q", scaleProduct)
	}
	w.spec = spec
	return instantiateField(w.seed, []products.Spec{spec})
}

func (w *atscaleWL) prepare(ctx context.Context) error { return nil }
func (w *atscaleWL) discard() error                    { return nil }

func (w *atscaleWL) pass(ctx context.Context) (passOut, error) {
	return w.runShards(ctx, scaleShards)
}

// runShards runs the at-scale simulation on the given number of
// executors; its report must not depend on that number.
func (w *atscaleWL) runShards(ctx context.Context, shards int) (passOut, error) {
	out := passOut{attempted: 1}
	start := time.Now()
	res, err := eval.RunShardedScale(ctx, w.spec, w.config(shards))
	out.wall = time.Since(start)
	if err != nil {
		out.failed = 1
		return out, err
	}
	text, err := shardedReport(res)
	if err != nil {
		out.failed = 1
		return out, err
	}
	w.last = res
	out.ops = float64(res.Events)
	out.digest = digest(text)
	out.note = fmt.Sprintf("%d events over %d shards, report sha256 %s", res.Events, res.Shards, out.digest[:12])
	return out, nil
}

// finalCheck holds the sharded kernel to its determinism contract: the
// report does not depend on the number of executors.
func (w *atscaleWL) finalCheck(ctx context.Context, d string) error {
	out, err := w.runShards(ctx, scaleCheckShards)
	if err != nil {
		return err
	}
	if out.digest != d {
		return fmt.Errorf("%d-shard report sha256 %s differs from the %d-shard report's %s",
			scaleCheckShards, out.digest, scaleShards, d)
	}
	return nil
}

func shardedReport(res *eval.ShardedScaleResult) ([]byte, error) {
	var b bytes.Buffer
	err := report.ShardedScaleReport(&b, res)
	return b.Bytes(), err
}
