package eval

import (
	"context"
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/products"
	"repro/internal/trace"
)

// RunTraceAccuracyStream replays a canned IDT2 trace (Lesson 2) against
// a product and scores the monitor's reports against the trace's
// ground-truth sidecar. The product first trains on live clean
// background for trainFor; new background sessions stop when the replay
// starts, so the measured period is the replay. The testbed is sized from
// the stream's footer statistics, chunks are decoded one ahead of the
// replay clock on an internal/par worker, and peak memory is O(chunk)
// instead of O(capture). Sizing and ground truth come from the footer,
// which NewReader loaded at open; a footer that misstates the records
// fails the replay when the reader reaches it. Cancelling ctx halts the
// replay at the kernel's interrupt stride.
//
// When reg is non-nil, the run is instrumented: wall-clock stage spans
// ("replay.setup" / "replay.train" / "replay.replay" / "replay.score"),
// decoder counters on rd, and the full testbed component telemetry.
// The scored result is bit-identical with reg set or nil.
func RunTraceAccuracyStream(ctx context.Context, spec products.Spec, rd *trace.Reader, sensitivity float64, trainFor time.Duration, seed int64, reg *obs.Registry) (*AccuracyResult, error) {
	st := rd.Stats()
	if st.Packets == 0 {
		return nil, fmt.Errorf("eval: empty trace")
	}
	rd.SetObs(reg)
	sp := reg.StartSpan("replay.setup")
	tb, err := NewTestbed(spec, TestbedConfig{
		Seed: seed, TrainFor: trainFor,
		ClusterHosts: st.ClusterHosts, ExternalHosts: st.ExternalHosts,
		Obs: reg,
	})
	if err != nil {
		return nil, err
	}
	tb.Bind(ctx)
	sp.End()

	sp = reg.StartSpan("replay.train")
	var (
		replayStart time.Duration
		pr          *trace.PipelinedReader
		rs          *trace.ReplayStream
	)
	// Conversations (canonical flows) approximate the trace's
	// transaction count; the background generator's own sessions during
	// training are excluded on purpose.
	convs := make(map[packet.FlowKey]bool)
	err = runPhases(tb, sensitivity, func(start time.Duration) (time.Duration, error) {
		sp.End()
		sp = reg.StartSpan("replay.replay")
		replayStart = start
		pr = trace.NewPipelinedReader(rd, 2)
		var err error
		rs, err = trace.ReplayReader(tb.Sim, pr, start, func(p *packet.Packet) {
			if !p.Truth.Malicious {
				convs[p.Key().Canonical()] = true
			}
			tb.inject(p)
		})
		return 0, err
	})
	if pr != nil {
		pr.Close()
	}
	if err != nil {
		return nil, err
	}
	if err := rs.Err(); err != nil {
		return nil, err
	}
	sp.End()

	sp = reg.StartSpan("replay.score")
	truth := shiftIncidents(rd.Incidents(), st.FirstAt, replayStart)
	res, err := scoreAccuracy(tb, sensitivity, truth, len(convs)+len(truth))
	sp.End()
	return res, err
}

// shiftIncidents rebases ground-truth times from the trace's own
// timeline onto the replay clock.
func shiftIncidents(incs []attack.Incident, base, replayStart time.Duration) []attack.Incident {
	shifted := make([]attack.Incident, len(incs))
	for i, inc := range incs {
		inc.Start = inc.Start - base + replayStart
		shifted[i] = inc
	}
	return shifted
}
