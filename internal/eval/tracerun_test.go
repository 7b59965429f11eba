package eval

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/products"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// buildTrace generates a small labeled trace for replay tests, captured
// as IDT2 through the streaming recorder.
func buildTrace(t testing.TB, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := trace.NewWriter(&buf, "ecommerce-edge", seed)
	if err != nil {
		t.Fatal(err)
	}
	sim := simtime.New(seed)
	rec := trace.NewStreamRecorder(sim, sw)
	seq := &packet.SeqCounter{}
	eps := traffic.Endpoints{
		External: []packet.Addr{packet.IPv4(203, 0, 1, 1), packet.IPv4(203, 0, 1, 2)},
		Cluster: []packet.Addr{
			packet.IPv4(10, 1, 1, 1), packet.IPv4(10, 1, 1, 2), packet.IPv4(10, 1, 1, 3),
		},
	}
	gen, err := traffic.NewGenerator(sim, traffic.EcommerceEdge(), eps, seq, rec.Emit)
	if err != nil {
		t.Fatal(err)
	}
	gen.Start(40)
	ctx := &attack.Context{Sim: sim, Rng: sim.Stream("attack"), Seq: seq, Eps: eps, Emit: rec.Emit, Gen: gen}
	camp := attack.NewCampaign(ctx)
	if err := camp.SpreadAcross(2*time.Second, 10*time.Second, []attack.Scenario{
		attack.Exploit{Count: 3}, attack.BruteForce{Attempts: 20},
	}); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(15 * time.Second)
	gen.Stop()
	sim.Run()
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	sw.SetIncidents(camp.Incidents())
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The trace builder and the flat reference, lent to the external tests.
var (
	BuildTrace           = buildTrace
	RunFlatTraceAccuracy = runFlatTraceAccuracy
)

// runFlatTraceAccuracy is the reference RunTraceAccuracyStream is
// checked against. It materializes the whole trace, sizes the testbed
// from the records themselves rather than the footer, and schedules
// every record up front (a flat replay) instead of chunk by chunk, then
// runs the same phase driver and scorer.
func runFlatTraceAccuracy(ctx context.Context, spec products.Spec, data []byte, sensitivity float64, trainFor time.Duration, seed int64) (*AccuracyResult, error) {
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var recs []trace.Record
	for {
		c, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, c.Records...) // never released: stays valid
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("eval: empty trace")
	}
	maxCluster, maxExternal := 0, 0
	convs := make(map[packet.FlowKey]bool)
	for _, rec := range recs {
		for _, a := range [2]packet.Addr{rec.Pk.Src, rec.Pk.Dst} {
			c, e := netsim.PlanSizing(a)
			maxCluster = max(maxCluster, c)
			maxExternal = max(maxExternal, e)
		}
		if !rec.Pk.Truth.Malicious {
			convs[rec.Pk.Key().Canonical()] = true
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
	var replayStart time.Duration
	err = runPhases(tb, sensitivity, func(start time.Duration) (time.Duration, error) {
		replayStart = start
		for _, rec := range recs {
			if _, err := tb.Sim.ScheduleAt(start+rec.At-recs[0].At, func() { tb.inject(rec.Pk) }); err != nil {
				return 0, err
			}
		}
		return 0, nil
	})
	if err != nil {
		return nil, err
	}
	truth := shiftIncidents(rd.Incidents(), recs[0].At, replayStart)
	return scoreAccuracy(tb, sensitivity, truth, len(convs)+len(truth))
}

// runStream replays data through RunTraceAccuracyStream.
func runStream(t *testing.T, spec products.Spec, data []byte, sensitivity float64, trainFor time.Duration, seed int64, reg *obs.Registry) (*AccuracyResult, error) {
	t.Helper()
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return RunTraceAccuracyStream(context.Background(), spec, rd, sensitivity, trainFor, seed, reg)
}

func TestRunTraceAccuracy(t *testing.T) {
	res, err := runStream(t, products.TrueSecure(), buildTrace(t, 23), 0.6, 6*time.Second, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActualIncidents != 2 {
		t.Fatalf("actual incidents = %d", res.ActualIncidents)
	}
	if res.DetectedIncidents == 0 {
		t.Fatal("replay detected nothing")
	}
	if res.Transactions <= 2 {
		t.Fatalf("transactions = %d; conversation counting broken", res.Transactions)
	}
	if len(res.Profiles) == 0 {
		t.Fatal("no intent profiles from replay")
	}
	// The exploit must be caught by a signature product on replay.
	if !res.ByTechnique[attack.TechExploit] {
		t.Fatal("exploit missed on replay")
	}
	// The background generator only trains; a replay ingests the trace.
	if res.IngestedBytes != 0 {
		t.Fatalf("trace result ingested %d generator bytes, want 0", res.IngestedBytes)
	}
}

func TestRunTraceAccuracyDeterministic(t *testing.T) {
	data := buildTrace(t, 23)
	run := func() (int, int) {
		res, err := runStream(t, products.NetRecorder(), data, 0.6, 4*time.Second, 11, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.DetectedIncidents, res.FalseAlarms
	}
	d1, f1 := run()
	d2, f2 := run()
	if d1 != d2 || f1 != f2 {
		t.Fatalf("replay nondeterministic: (%d,%d) vs (%d,%d)", d1, f1, d2, f2)
	}
}

func TestRunTraceAccuracyRejectsEmpty(t *testing.T) {
	var buf bytes.Buffer
	sw, err := trace.NewWriter(&buf, "empty", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	// The empty stream must fail before any testbed is built, so no
	// setup span is recorded.
	reg := obs.NewRegistry()
	if _, err := runStream(t, products.NetRecorder(), buf.Bytes(), 0.5, time.Second, 1, reg); err == nil ||
		!strings.Contains(err.Error(), "empty trace") {
		t.Fatalf("empty trace: got %v, want the empty-trace error", err)
	}
	if _, ok := reg.SpanDur("replay.setup"); ok {
		t.Fatal("a testbed was set up for an empty trace")
	}
}

func TestTraceRoundTripThroughReplayMatchesLive(t *testing.T) {
	// A trace recorded and replayed must produce detection outcomes for
	// the same techniques as the live generation path (same engines, same
	// content).
	res, err := runStream(t, products.TrueSecure(), buildTrace(t, 31), 0.7, 6*time.Second, 13, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range []string{attack.TechExploit, attack.TechBruteForce} {
		if !res.ByTechnique[tech] {
			t.Fatalf("replay lost detectability of %s", tech)
		}
	}
}

func TestStreamAccuracyMatchesInMemory(t *testing.T) {
	// The streaming chunked replay path must reproduce the flat
	// reference's results exactly — rendered reports and all — for the
	// same trace, product, and seeds.
	data := buildTrace(t, 23)
	for _, spec := range []products.Spec{products.TrueSecure(), products.NetRecorder()} {
		want, err := runFlatTraceAccuracy(context.Background(), spec, data, 0.6, 6*time.Second, 11)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		got, err := runStream(t, spec, data, 0.6, 6*time.Second, 11, reg)
		if err != nil {
			t.Fatal(err)
		}
		if chunks, _ := reg.Snapshot().Counter("trace.decoder.chunks"); chunks == 0 {
			t.Fatal("streaming run decoded no chunks")
		}
		for _, name := range []string{"replay.setup", "replay.train", "replay.replay", "replay.score"} {
			if _, ok := reg.SpanDur(name); !ok {
				t.Fatalf("stage span %q not recorded", name)
			}
		}
		// Field-for-field equality: every count, ratio, technique flag,
		// and intent profile must match, so any downstream report renders
		// byte-identically from either path.
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: streaming result differs from the flat replay:\nflat: %+v\nstreaming: %+v",
				spec.Name, want, got)
		}
	}
}

func TestStreamAccuracyRequiresIndex(t *testing.T) {
	data := buildTrace(t, 23)
	// The streaming runner sizes the testbed and takes ground truth from
	// the footer index, so a stream without one must not open at all.
	if _, err := trace.NewReader(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("footerless trace opened")
	}
}
