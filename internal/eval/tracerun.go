package eval

import (
	"context"
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/products"
	"repro/internal/trace"
)

// RunTraceAccuracy replays a canned trace (Lesson 2) against a product
// and scores the monitor's reports against the trace's ground-truth
// sidecar. The product first trains on live clean background for
// trainFor, then the entire trace is replayed through the testbed hosts.
// Cancelling ctx halts the replay at the kernel's interrupt stride.
func RunTraceAccuracy(ctx context.Context, spec products.Spec, tr *trace.Trace, sensitivity float64, trainFor time.Duration, seed int64) (*AccuracyResult, error) {
	if len(tr.Records) == 0 {
		return nil, fmt.Errorf("eval: empty trace")
	}
	// Size the testbed to cover every in-plan address the trace uses.
	maxCluster, maxExternal := 0, 0
	for _, rec := range tr.Records {
		for _, a := range [2]packet.Addr{rec.Pk.Src, rec.Pk.Dst} {
			c, e := netsim.PlanSizing(a)
			maxCluster = max(maxCluster, c)
			maxExternal = max(maxExternal, e)
		}
	}
	tb, err := NewTestbed(spec, TestbedConfig{
		Seed: seed, TrainFor: trainFor,
		ClusterHosts: maxCluster, ExternalHosts: maxExternal,
	})
	if err != nil {
		return nil, err
	}
	tb.Bind(ctx)
	if err := tb.Train(); err != nil {
		return nil, err
	}
	if err := tb.IDS.SetSensitivity(sensitivity); err != nil {
		return nil, err
	}
	replayStart := tb.Sim.Now()
	if err := trace.Replay(tb.Sim, tr, replayStart, 1, tb.inject); err != nil {
		return nil, err
	}
	tb.Drain()
	if err := tb.Interrupted(); err != nil {
		return nil, err
	}
	tb.IDS.Flush()

	// Conversations (canonical flows) approximate the trace's transaction
	// count; the background generator's own sessions during training are
	// excluded on purpose — the measured period is the replay.
	convs := make(map[packet.FlowKey]bool)
	for _, rec := range tr.Records {
		if !rec.Pk.Truth.Malicious {
			convs[rec.Pk.Key().Canonical()] = true
		}
	}

	res, err := scoreTraceAccuracy(tb, sensitivity,
		shiftIncidents(tr.Incidents, tr.Records[0].At, replayStart), convs)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunTraceAccuracyStream is RunTraceAccuracy for a streamed IDT2 trace:
// the testbed is sized from the stream's footer statistics, chunks are
// decoded one ahead of the replay clock on an internal/par worker, and
// peak memory is O(chunk) instead of O(capture). Results are identical
// to loading the same records through RunTraceAccuracy. Sizing and
// ground truth come from the footer, which NewReader loaded at open; a
// footer that misstates the records fails the replay when the reader
// reaches it.
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
	if err := tb.Train(); err != nil {
		return nil, err
	}
	if err := tb.IDS.SetSensitivity(sensitivity); err != nil {
		return nil, err
	}
	sp.End()

	sp = reg.StartSpan("replay.replay")
	replayStart := tb.Sim.Now()
	convs := make(map[packet.FlowKey]bool)
	emit := func(p *packet.Packet) {
		if !p.Truth.Malicious {
			convs[p.Key().Canonical()] = true
		}
		tb.inject(p)
	}
	pr := trace.NewPipelinedReader(rd, 2)
	defer pr.Close()
	rs, err := trace.ReplayReader(tb.Sim, pr, replayStart, 1, emit)
	if err != nil {
		return nil, err
	}
	tb.Drain()
	if err := rs.Err(); err != nil {
		return nil, err
	}
	if err := tb.Interrupted(); err != nil {
		return nil, err
	}
	tb.IDS.Flush()
	sp.End()

	sp = reg.StartSpan("replay.score")
	res, err := scoreTraceAccuracy(tb, sensitivity,
		shiftIncidents(rd.Incidents(), st.FirstAt, replayStart), convs)
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

// scoreTraceAccuracy mirrors scoreAccuracy but takes truth from a trace
// sidecar and estimates |T| from the trace's conversation count (convs,
// the canonical flow keys of the trace's clean packets).
func scoreTraceAccuracy(tb *Testbed, sensitivity float64, truth []attack.Incident, convs map[packet.FlowKey]bool) (*AccuracyResult, error) {
	reports := tb.IDS.Monitor().Incidents
	res := &AccuracyResult{
		Product:           tb.Spec.Name,
		Sensitivity:       sensitivity,
		ActualIncidents:   len(truth),
		ReportedIncidents: len(reports),
		ByTechnique:       make(map[string]bool),
		Transactions:      len(convs) + len(truth),
		TruthIncidents:    truth,
		compromisedTruth:  make(map[uint32]bool),
		compromisedFound:  make(map[uint32]bool),
	}
	if res.Transactions == 0 {
		return nil, fmt.Errorf("eval: trace has no transactions")
	}
	matched := make(map[*ids.ReportedIncident]bool)
	var delays []time.Duration
	for _, inc := range truth {
		detected := false
		var first time.Duration = -1
		for _, rep := range reports {
			if matches(rep, inc) {
				matched[rep] = true
				detected = true
				if first < 0 || rep.ReportedAt < first {
					first = rep.ReportedAt
				}
			}
		}
		res.ByTechnique[inc.Technique] = res.ByTechnique[inc.Technique] || detected
		if detected {
			res.DetectedIncidents++
			d := first - inc.Start
			if d < 0 {
				d = 0
			}
			delays = append(delays, d)
		}
	}
	for _, rep := range reports {
		if !matched[rep] {
			res.FalseAlarms++
		}
	}
	missed := res.ActualIncidents - res.DetectedIncidents
	res.FalsePositiveRatio = float64(res.FalseAlarms) / float64(res.Transactions)
	res.FalseNegativeRatio = float64(missed) / float64(res.Transactions)
	if res.ActualIncidents > 0 {
		res.MissRate = float64(missed) / float64(res.ActualIncidents)
		res.DetectionRate = 1 - res.MissRate
	}
	for _, d := range delays {
		res.MeanDetectionDelay += d
		if d > res.MaxDetectionDelay {
			res.MaxDetectionDelay = d
		}
	}
	if len(delays) > 0 {
		res.MeanDetectionDelay /= time.Duration(len(delays))
	}
	res.DelayP50, res.DelayP95, res.DelayP99, res.DelayHist = delayStats(delays)
	if c := tb.IDS.Console(); c != nil {
		res.FirewallBlocks = len(c.Firewall.BlockEvents)
		res.RouterRedirects = len(c.Redirects)
		res.SNMPTraps = len(c.SNMPTraps)
		res.FilteredPackets = c.Firewall.FilteredPackets
	}
	st := tb.IDS.Stats()
	res.SensorDrops = st.SensorDropped
	res.SensorFailures = st.SensorFailures
	res.StorageBytes = st.StorageBytes
	res.TapDrops = tb.MirrorDrops()
	res.IngestedPkts = st.Ingested
	res.ProcessedPkts = st.Processed
	res.Notifications = st.Notifications
	res.SensorBusy = st.SensorBusy
	res.Profiles = tb.IDS.Monitor().IntentReport()
	return res, nil
}
