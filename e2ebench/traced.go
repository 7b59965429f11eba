package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/fsio"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/products"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// tracer is one traced run. Every layer is measured from outside the
// program: the benchmark times the public calls it makes into each
// module, wraps the fsio.FS seam, reads the obs registries the public
// configs accept, and profiles its own process. The run measures every
// layer whichever workload it was asked for; that workload's traced
// pass is the one profiled, and the whole-process figures (cpu.*, go.*,
// trace_overhead_s) belong to it.
type tracer struct {
	*env
	m          metrics
	target     string
	profile    string
	tracedWall time.Duration
	attempted  int
	failed     int
}

func runTraced(ctx context.Context, e *env, name string) (result, error) {
	t := &tracer{env: e, m: metrics{}, target: name, profile: filepath.Join(e.work, "cpu.pprof")}
	res := result{Metrics: t.m}
	untraced, ref, err := t.untracedPass(ctx)
	if err == nil {
		err = t.layers(ctx, ref)
	}
	if err == nil {
		err = t.wholeProcess(untraced)
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	if err != nil {
		res.Failed = res.Attempted
		if res.Attempted == 0 {
			res.Attempted, res.Failed = 1, 1
		}
		return res, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func (t *tracer) layers(ctx context.Context, ref *evalRef) error {
	for _, f := range []func(context.Context) error{
		func(ctx context.Context) error { return t.scorecardLayers(ctx, ref) },
		t.campaignLayers,
		t.daemonLayers,
		t.atscaleLayers,
	} {
		if err := f(ctx); err != nil {
			return err
		}
	}
	return nil
}

// count books a pass's operations into the run's totals.
func (t *tracer) count(out passOut) {
	t.attempted += out.attempted
	t.failed += out.failed
}

// untracedPass runs the target workload once exactly as a timed pass
// does, for the traced-minus-untraced overhead and the Go allocator
// deltas. The scorecard's EvaluateAll is kept as the reference the
// traced breakdown must reproduce and is divided by.
func (t *tracer) untracedPass(ctx context.Context) (time.Duration, *evalRef, error) {
	w := workloads[t.target](t.env)
	if err := w.setup(ctx); err != nil {
		return 0, nil, err
	}
	if err := w.prepare(ctx); err != nil {
		return 0, nil, err
	}
	if err := generateInputs(w); err != nil {
		return 0, nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := w.pass(ctx)
	runtime.ReadMemStats(&after)
	t.count(out)
	if derr := w.discard(); err == nil {
		err = derr
	}
	if err != nil {
		return 0, nil, err
	}
	t.m.set("go.mallocs", float64(after.Mallocs-before.Mallocs), "count")
	t.m.set("go.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), "MB")
	t.m.set("go.gc_cycles", float64(after.NumGC-before.NumGC), "count")
	t.m.set("wall.untraced_s", out.wall.Seconds(), "s")
	var ref *evalRef
	if sw, ok := w.(*scorecardWL); ok {
		ref = sw.ref
	}
	return out.wall, ref, nil
}

// traced runs one family's traced pass; the target's runs under the
// CPU profile.
func (t *tracer) traced(family string, fn func() error) (time.Duration, error) {
	if family != t.target {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	}
	stop, err := startCPUProfile(t.profile)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	err = fn()
	t.tracedWall = time.Since(start)
	if serr := stop(); err == nil {
		err = serr
	}
	return t.tracedWall, err
}

// wholeProcess folds the target's profile by module.
func (t *tracer) wholeProcess(untraced time.Duration) error {
	byMod, total, err := foldProfile(t.profile)
	if err != nil {
		return err
	}
	for m, v := range byMod {
		t.m.set("cpu."+m+"_s", v, "s")
	}
	t.m.set("cpu.total_s", total, "s")
	t.m.set("wall.traced_s", t.tracedWall.Seconds(), "s")
	t.m.set("trace_overhead_s", (t.tracedWall - untraced).Seconds(), "s")
	return nil
}

// tapped is one packet the accuracy testbed handed its IDS.
type tapped struct {
	p        *packet.Packet
	now      time.Duration
	training bool
}

// scorecardLayers times the five experiment calls EvaluateProduct makes,
// per product, with its options, and checks each result equals the
// matching field of the untraced evaluation; their sum over the
// untraced EvaluateAll's wall is the breakdown's coverage. A second,
// untimed accuracy run captures the tapped packets, which are replayed
// through a bare engine for the detect layer; a bare generator gives
// the traffic layer.
func (t *tracer) scorecardLayers(ctx context.Context, ref *evalRef) error {
	w := &scorecardWL{env: t.env}
	if err := w.setup(ctx); err != nil {
		return err
	}
	if ref == nil {
		r, err := w.evaluate(ctx)
		if err != nil {
			return err
		}
		ref = r
	}
	accCfg := eval.TestbedConfig{Seed: t.seed}
	attackFor, strength := 45*time.Second, attack.Intensity(1)
	thOpts := eval.ThroughputOptions{Seed: t.seed}
	swOpts := eval.SweepOptions{Seed: t.seed, Workers: 1}
	trainFor, pps := 20*time.Second, 600.0 // the testbed's defaults
	if t.size.Quick {
		accCfg.TrainFor, accCfg.BackgroundPps = 8*time.Second, 250
		trainFor, pps = accCfg.TrainFor, accCfg.BackgroundPps
		attackFor, strength = 20*time.Second, 0.5
		thOpts.Window, thOpts.HiPps = 100*time.Millisecond, 65536
		swOpts.Points, swOpts.TrainFor, swOpts.RunFor, swOpts.Pps, swOpts.Strength = 3, 6*time.Second, 14*time.Second, 200, 0.5
	}
	const sensitivity = 0.6

	stages := []string{"accuracy", "throughput", "latency", "impact", "sweep"}
	stageTime := make([]time.Duration, len(stages))
	timed := func(i int, fn func() error) error {
		start := time.Now()
		err := fn()
		stageTime[i] += time.Since(start)
		return err
	}
	got := make([]eval.ProductEvaluation, len(w.field))
	var events uint64
	var simRun time.Duration // RunAccuracy alone, without testbed build and analysis
	_, err := t.traced("scorecard", func() error {
		for i, spec := range w.field {
			ev := &got[i]
			err := timed(0, func() error {
				tb, err := eval.NewTestbed(spec, accCfg)
				if err != nil {
					return err
				}
				tb.Bind(ctx)
				start := time.Now()
				if ev.Accuracy, err = eval.RunAccuracy(tb, sensitivity, attackFor, strength); err != nil {
					return err
				}
				simRun += time.Since(start)
				ev.Compromise = eval.AnalyzeCompromise(tb, ev.Accuracy)
				events += tb.Sim.Processed()
				return nil
			})
			if err == nil {
				err = timed(1, func() (err error) {
					ev.Throughput, err = eval.MeasureThroughput(ctx, spec, thOpts)
					return err
				})
			}
			if err == nil {
				err = timed(2, func() (err error) {
					ev.Latency, err = eval.MeasureInducedLatency(spec, eval.TapMirror, t.seed)
					return err
				})
			}
			if err == nil {
				err = timed(3, func() (err error) {
					ev.Impact, err = eval.MeasureOperationalImpact(spec, t.seed)
					return err
				})
			}
			if err == nil {
				err = timed(4, func() (err error) {
					ev.Sweep, err = eval.SensitivitySweep(ctx, spec, swOpts)
					return err
				})
			}
			if err != nil {
				return fmt.Errorf("%s: %w", spec.Name, err)
			}
		}
		return nil
	})
	t.attempted += len(w.field)
	if err != nil {
		t.failed += len(w.field)
		return err
	}
	for i := range got {
		if err := sameResults(&got[i], ref.evs[i]); err != nil {
			return err
		}
	}
	var covered time.Duration
	for i, s := range stages {
		t.m.set("eval."+s+"_s", stageTime[i].Seconds(), "s")
		covered += stageTime[i]
	}
	t.m.set("eval.coverage", covered.Seconds()/ref.wall.Seconds(), "ratio")
	t.m.set("eval.untraced_wall_s", ref.wall.Seconds(), "s")
	t.m.set("simtime.events", float64(events), "count")
	t.m.set("simtime.ns_per_event", float64(simRun.Nanoseconds())/float64(events), "ns")

	var inspect time.Duration
	var bytes, alerts uint64
	for i, spec := range w.field {
		taps, err := captureTaps(ctx, spec, accCfg, sensitivity, attackFor, strength, got[i].Accuracy)
		if err != nil {
			return err
		}
		d, b, a, err := replayDetect(spec, taps, sensitivity)
		if err != nil {
			return err
		}
		inspect += d
		bytes += b
		alerts += a
	}
	t.m.set("detect.inspect_s", inspect.Seconds(), "s")
	t.m.set("detect.bytes", float64(bytes), "bytes")
	t.m.set("detect.alerts", float64(alerts), "count")

	synth, packets, payload, mallocs, err := synthesize(t.seed, pps, trainFor+attackFor)
	if err != nil {
		return err
	}
	t.m.set("traffic.synth_s", synth.Seconds(), "s")
	t.m.set("traffic.packets", float64(packets), "count")
	t.m.set("traffic.payload_bytes", float64(payload), "bytes")
	t.m.set("traffic.mallocs", float64(mallocs), "count")
	return nil
}

// sameResults checks that the traced experiment calls reproduced the
// untraced evaluation field for field.
func sameResults(got, want *eval.ProductEvaluation) error {
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"Accuracy", got.Accuracy, want.Accuracy},
		{"Compromise", got.Compromise, want.Compromise},
		{"Throughput", got.Throughput, want.Throughput},
		{"Latency", got.Latency, want.Latency},
		{"Impact", got.Impact, want.Impact},
		{"Sweep", got.Sweep, want.Sweep},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			return fmt.Errorf("traced %s result for %s differs from EvaluateAll's", f.name, want.Spec.Name)
		}
	}
	return nil
}

// captureTaps re-runs a product's accuracy experiment, untimed, with
// eval.OfferHook copying every packet its IDS is offered. The run must
// reproduce the timed run's result.
func captureTaps(ctx context.Context, spec products.Spec, cfg eval.TestbedConfig, sensitivity float64,
	attackFor time.Duration, strength attack.Intensity, want *eval.AccuracyResult) ([]tapped, error) {
	tb, err := eval.NewTestbed(spec, cfg)
	if err != nil {
		return nil, err
	}
	tb.Bind(ctx)
	var taps []tapped
	eval.OfferHook = func(p *packet.Packet, training bool) {
		taps = append(taps, tapped{p.Clone(), tb.Sim.Now(), training})
	}
	defer func() { eval.OfferHook = nil }()
	acc, err := eval.RunAccuracy(tb, sensitivity, attackFor, strength)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(acc, want) {
		return nil, fmt.Errorf("%s accuracy run with the tap hook differs from the timed run", spec.Name)
	}
	return taps, nil
}

// replayDetect feeds captured tapped packets through a fresh engine of
// the product: Train while the testbed was training, Inspect after.
func replayDetect(spec products.Spec, taps []tapped, sensitivity float64) (time.Duration, uint64, uint64, error) {
	eng := spec.IDS.Engine()
	var bytes, alerts uint64
	tuned := false
	start := time.Now()
	for _, tp := range taps {
		if tp.training {
			eng.Train(tp.p, tp.now)
			continue
		}
		if !tuned {
			if err := eng.SetSensitivity(sensitivity); err != nil {
				return 0, 0, 0, err
			}
			tuned = true
		}
		alerts += uint64(len(eng.Inspect(tp.p, tp.now)))
		bytes += uint64(len(tp.p.Payload))
	}
	return time.Since(start), bytes, alerts, nil
}

// synthesize runs a bare traffic generator at the accuracy experiment's
// profile, rate and duration, discarding every packet.
func synthesize(seed int64, pps float64, dur time.Duration) (synth time.Duration, packets, payload, mallocs uint64, err error) {
	sim := simtime.New(seed)
	eps := endpoints()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	gen, err := traffic.NewGenerator(sim, traffic.EcommerceEdge(), eps, &packet.SeqCounter{}, func(*packet.Packet) {})
	if err == nil {
		err = gen.Start(gen.SessionRateForPps(pps))
	}
	if err != nil {
		return 0, 0, 0, 0, err
	}
	sim.RunUntil(dur)
	gen.Stop()
	sim.Run()
	synth = time.Since(start)
	runtime.ReadMemStats(&after)
	return synth, gen.PacketsEmitted, gen.BytesEmitted, after.Mallocs - before.Mallocs, nil
}

// campaignLayers runs the campaign through a timing FS, then re-runs
// every experiment serially through SweepPointAt/FaultPointAt and checks
// each equals the result the campaign committed.
func (t *tracer) campaignLayers(ctx context.Context) error {
	w := &campaignWL{env: t.env}
	if err := w.setup(ctx); err != nil {
		return err
	}
	tfs := newTimingFS(fsio.OS)
	w.fs, w.reg = tfs, obs.NewRegistry()
	if err := w.prepare(ctx); err != nil {
		return err
	}
	var out passOut
	wall, err := t.traced("campaign", func() (err error) {
		out, err = w.pass(ctx)
		return err
	})
	t.count(out)
	if err != nil {
		return err
	}
	entries, _, err := campaign.ReplayJournal(w.dir)
	if err != nil {
		return err
	}
	var busyMs int64
	for _, e := range entries {
		busyMs += e.ElapsedMs
	}
	busy := float64(busyMs) / 1000
	t.m.set("campaign.busy_s", busy, "s")
	t.m.set("campaign.workers", float64(w.workers()), "count")
	t.m.set("campaign.wall_s", wall.Seconds(), "s")
	t.m.set("campaign.parallel_efficiency", busy/(float64(w.workers())*wall.Seconds()), "ratio")
	t.m.set("fsio.commit_ms", median(millis(tfs.commitTimes())), "ms")
	t.m.set("fsio.campaign_journal_sync_ms", median(millis(tfs.times("sync", "journal.jsonl"))), "ms")

	exps, err := w.spec().Plan()
	if err != nil {
		return err
	}
	var sweepT, faultT []float64
	for _, ex := range exps {
		spec, ok := products.Find(ex.Product)
		if !ok {
			return fmt.Errorf("unknown product %q", ex.Product)
		}
		committed, err := campaign.LoadResult(w.dir, ex.ID)
		if err != nil {
			return err
		}
		start := time.Now()
		var want any
		var have any
		switch ex.Kind {
		case campaign.KindSweepPoint:
			opts := eval.SweepOptions{Seed: t.seed, Points: ex.Points, Workers: 1}
			if t.size.Quick {
				opts.TrainFor, opts.RunFor, opts.Pps, opts.Strength = 6*time.Second, 14*time.Second, 200, 0.5
			}
			p, err := eval.SweepPointAt(ctx, spec, opts, ex.Index)
			if err != nil {
				return err
			}
			sweepT = append(sweepT, time.Since(start).Seconds())
			want = &campaign.PointResult{Index: ex.Index, Points: ex.Points, Sensitivity: p.Sensitivity, TypeI: p.TypeI, TypeII: p.TypeII}
			have = committed.Point
		case campaign.KindFaultPoint:
			sc, err := faults.Load(ex.Scenario)
			if err != nil {
				return err
			}
			opts := eval.FaultSweepOptions{Seed: t.seed, Points: ex.Points, Workers: 1}
			if t.size.Quick {
				opts.TrainFor, opts.AttackFor, opts.Pps = 8*time.Second, 20*time.Second, 300
			}
			fr, err := eval.FaultPointAt(ctx, spec, sc, opts, ex.Index)
			if err != nil {
				return err
			}
			faultT = append(faultT, time.Since(start).Seconds())
			want = &campaign.FaultResult{
				Scenario: committed.Fault.Scenario, Index: ex.Index, Points: ex.Points,
				Severity: fr.Severity, DetectionRate: fr.Accuracy.DetectionRate,
				AlertsLost: fr.AlertsLost, AlertsDropped: fr.AlertsDropped,
				SpoolDelivered: fr.SpoolDelivered, SensorDownNs: int64(fr.SensorDowntime),
			}
			have = committed.Fault
		default:
			return fmt.Errorf("unexpected experiment kind %q", ex.Kind)
		}
		if !reflect.DeepEqual(want, have) {
			return fmt.Errorf("serial %s result differs from the campaign's committed result", ex.ID)
		}
	}
	t.m.set("eval.sweep_point_s", median(sweepT), "s")
	t.m.set("eval.fault_point_s", median(faultT), "s")
	return nil
}

// daemonLayers runs the daemon through a timing FS and an obs registry,
// attributes each stream's time from the client's clocks, checks every
// scorecard against a direct campaign run on the same trace, and
// measures trace replay and decoding on the same inputs.
func (t *tracer) daemonLayers(ctx context.Context) error {
	w := &daemonWL{env: t.env}
	if err := w.setup(ctx); err != nil {
		return err
	}
	if err := w.generateInputs(); err != nil {
		return err
	}
	tfs := newTimingFS(fsio.OS)
	reg := obs.NewRegistry()
	w.fs, w.reg = tfs, reg
	if err := w.prepare(ctx); err != nil {
		return err
	}
	var out passOut
	_, err := t.traced("daemon", func() (err error) {
		out, err = w.pass(ctx)
		return err
	})
	t.count(out)
	var evalBusy []time.Duration
	if err == nil {
		evalBusy, err = w.streamEvalTimes()
	}
	if derr := w.discard(); err == nil {
		err = derr
	}
	if err != nil {
		return err
	}

	var hello, upload, await, e2e, wait, acks []float64
	chunks := 0
	for i, st := range w.streams {
		hello = append(hello, float64(st.hello)/float64(time.Millisecond))
		upload = append(upload, st.upload.Seconds())
		await = append(await, st.await.Seconds())
		e2e = append(e2e, st.e2e.Seconds())
		wait = append(wait, (st.await - evalBusy[i]).Seconds())
		acks = append(acks, millis(st.acks)...)
		chunks += st.chunks
	}
	t.m.set("serve.hello_ms", median(hello), "ms")
	t.m.set("serve.upload_s", median(upload), "s")
	t.m.set("serve.await_s", median(await), "s")
	t.m.set("serve.queue_wait_s", median(wait), "s")
	t.m.set("serve.stream_e2e_p50_s", median(e2e), "s")
	t.m.set("serve.streams", float64(len(w.streams)), "count")
	ackP50 := median(acks)
	t.m.set("serve.ack_p50_ms", ackP50, "ms")
	t.m.set("serve.ack_samples", float64(len(acks)), "count")
	if p, ok := tailPercentile(len(acks)); ok {
		t.m.set("serve.ack_tail_ms", percentile(acks, p), "ms")
		t.m.set("serve.ack_tail_pct", p, "%")
	} else {
		return fmt.Errorf("%d acks are too few for a tail percentile", len(acks))
	}
	h := reg.Snapshot().Hist("serve.ack_ns")
	if h == nil {
		return errors.New("serve.ack_ns histogram missing from the daemon's registry")
	}
	serverP50 := float64(h.Quantile(0.5)) / 1e6
	t.m.set("serve.ack_server_p50_ms", serverP50, "ms")
	t.m.set("serve.wire_p50_ms", ackP50-serverP50, "ms")
	t.m.set("serve.chunks", float64(chunks), "count")

	for _, f := range []struct{ name, file string }{{"spool", "trace.idt2"}, {"journal", "acks.jsonl"}} {
		for _, op := range []string{"write", "sync"} {
			ds := millis(tfs.times(op, f.file))
			t.m.set(fmt.Sprintf("fsio.%s_%s_ms_p50", f.name, op), median(ds), "ms")
			t.m.set(fmt.Sprintf("fsio.%s_%s_ms_p99", f.name, op), percentile(ds, 99), "ms")
		}
	}
	syncs := len(tfs.times("sync", "trace.idt2")) + len(tfs.times("sync", "acks.jsonl"))
	t.m.set("fsio.ingest_syncs", float64(syncs), "count")
	t.m.set("fsio.syncs_per_chunk", float64(syncs)/float64(chunks), "ratio")

	if err := w.checkDirect(ctx); err != nil {
		return err
	}
	if err := t.replaySpans(ctx, w); err != nil {
		return err
	}
	return t.decodeTraces(w.traces)
}

// streamEvalTimes sums each stream's committed experiment times from
// its campaign journal.
func (w *daemonWL) streamEvalTimes() ([]time.Duration, error) {
	out := make([]time.Duration, len(w.streams))
	for i := range w.streams {
		entries, _, err := campaign.ReplayJournal(filepath.Join(w.dir, "streams", w.streamName(i), "campaign"))
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			out[i] += time.Duration(e.ElapsedMs) * time.Millisecond
		}
	}
	return out, nil
}

// checkDirect evaluates every trace with a direct campaign.Runner,
// planned exactly as the daemon plans a finished stream, and checks the
// report equals the scorecard the daemon streamed back.
func (w *daemonWL) checkDirect(ctx context.Context) error {
	for i := range w.streams {
		name := w.streamName(i)
		dir, err := w.env.dir(filepath.Join("direct", name))
		if err != nil {
			return err
		}
		path := filepath.Join(dir, "trace.idt2")
		if err := os.Link(w.traces[i], path); err != nil {
			return err
		}
		cdir := filepath.Join(dir, "campaign")
		meta := w.meta(i)
		spec := &campaign.Spec{Name: meta.Name, Seed: meta.Seed, Quick: meta.Quick, Sensitivity: meta.Sensitivity, Traces: []string{path}}
		if err := campaign.SavePlan(cdir, spec); err != nil {
			return err
		}
		if _, err := (&campaign.Runner{Dir: cdir, Workers: runtime.NumCPU()}).Run(ctx); err != nil {
			return err
		}
		card, err := campaignReport(cdir)
		if err != nil {
			return err
		}
		if string(card) != string(w.streams[i].card) {
			return fmt.Errorf("daemon scorecard for %s differs from a direct campaign run on the same trace", name)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

// replaySpans reads the replay.* stage spans RunTraceAccuracyStream
// records on a registry, over the first daemon trace, per product.
func (t *tracer) replaySpans(ctx context.Context, w *daemonWL) error {
	trainFor := 15 * time.Second
	if t.size.Quick {
		trainFor = 6 * time.Second
	}
	stages := []string{"setup", "train", "replay", "score"}
	totals := make([]time.Duration, len(stages))
	for _, spec := range w.field {
		f, err := os.Open(w.traces[0])
		if err != nil {
			return err
		}
		rd, err := trace.NewReader(f)
		if err == nil {
			reg := obs.NewRegistry()
			_, err = eval.RunTraceAccuracyStream(ctx, spec, rd, daemonSensitivity, trainFor, t.seed, reg)
			for i, s := range stages {
				d, _ := reg.SpanDur("replay." + s)
				totals[i] += d
			}
		}
		f.Close()
		if err != nil {
			return err
		}
	}
	for i, s := range stages {
		t.m.set("eval.replay_"+s+"_s", totals[i].Seconds(), "s")
	}
	return nil
}

// decodeTraces decodes every daemon trace with the streaming reader.
func (t *tracer) decodeTraces(paths []string) error {
	reg := obs.NewRegistry()
	start := time.Now()
	for _, p := range paths {
		if err := decodeTrace(p, reg); err != nil {
			return err
		}
	}
	t.m.set("trace.decode_s", time.Since(start).Seconds(), "s")
	records, _ := reg.Snapshot().Counter("trace.decoder.records")
	t.m.set("trace.records", float64(records), "count")
	return nil
}

func decodeTrace(path string, reg *obs.Registry) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	rd.SetObs(reg)
	for {
		c, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		c.Release()
	}
}

// atscaleLayers reads the coordinator's own instrumentation from the
// run's obs registry, then times untraced 1-shard and N-shard runs for
// the speed-up. All three reports must be identical.
func (t *tracer) atscaleLayers(ctx context.Context) error {
	w := &atscaleWL{env: t.env}
	if err := w.setup(ctx); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	w.reg = reg
	var out passOut
	_, err := t.traced("atscale", func() (err error) {
		out, err = w.pass(ctx)
		return err
	})
	t.count(out)
	if err != nil {
		return err
	}
	res := w.last
	snap := reg.Snapshot()
	windows, _ := snap.Counter("simtime.shard.windows")
	t.m.set("simtime.shard.windows", float64(windows), "count")
	if h := snap.Hist("simtime.shard.window_events"); h != nil {
		t.m.set("simtime.shard.events_per_window", h.Mean(), "count")
	}
	if h := snap.Hist("simtime.shard.barrier_stall_ns"); h != nil {
		t.m.set("simtime.shard.barrier_stall_p50_ms", float64(h.Quantile(0.5))/1e6, "ms")
	}
	var busy, blocked time.Duration
	for _, a := range res.Attribution {
		busy += a.Busy
		blocked += a.Blocked
	}
	t.m.set("simtime.shard.busy_s", busy.Seconds(), "s")
	t.m.set("simtime.shard.blocked_s", blocked.Seconds(), "s")

	w.reg = nil
	rate := map[int]float64{}
	for _, shards := range []int{1, scaleCheckShards} {
		o, err := w.runShards(ctx, shards)
		t.count(o)
		if err != nil {
			return err
		}
		if o.digest != out.digest {
			return fmt.Errorf("%d-shard report differs from the traced run's", shards)
		}
		rate[shards] = w.last.EventsPerSec
	}
	t.m.set("simtime.shard.shards", float64(scaleCheckShards), "count")
	t.m.set("simtime.shard.events_per_s_1", rate[1], "1/s")
	t.m.set("simtime.shard.events_per_s_n", rate[scaleCheckShards], "1/s")
	t.m.set("simtime.shard.speedup", rate[scaleCheckShards]/rate[1], "ratio")
	return nil
}
