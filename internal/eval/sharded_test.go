package eval

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/products"
)

func scaleTestConfig(shards int) ShardedScaleConfig {
	return ShardedScaleConfig{
		Seed:            1234,
		Segments:        3,
		HostsPerSegment: 4,
		ExternalHosts:   2,
		Shards:          shards,
		Duration:        300 * time.Millisecond,
		BackgroundPps:   800,
		AttackEvery:     40 * time.Millisecond,
	}
}

func renderScale(t *testing.T, spec products.Spec, cfg ShardedScaleConfig) (string, *ShardedScaleResult) {
	t.Helper()
	res, err := RunShardedScale(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%+v\n", scrubWall(*res))
	return buf.String(), res
}

// scrubWall zeroes the machine-dependent fields so the rest of the
// struct can be compared byte for byte.
func scrubWall(r ShardedScaleResult) ShardedScaleResult {
	r.WallSeconds = 0
	r.EventsPerSec = 0
	r.Shards = 0        // differs by construction; everything else must not
	r.Attribution = nil // wall-clock profile, present only when instrumented
	return r
}

// TestShardedScaleDeterminism pins the tentpole invariant: the entire
// result — kernel event counts, per-segment traffic, alerts, detection
// delays — is byte-identical whether 1, 2, 4, or 8 executor goroutines
// advance the domains.
func TestShardedScaleDeterminism(t *testing.T) {
	spec, ok := products.Find("TrueSecure")
	if !ok {
		t.Fatal("TrueSecure spec missing")
	}
	want, res := renderScale(t, spec, scaleTestConfig(1))
	if res.Events == 0 || res.PacketsTapped == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
	for _, shards := range []int{2, 4, 8} {
		got, _ := renderScale(t, spec, scaleTestConfig(shards))
		if got != want {
			t.Errorf("shards=%d diverged from shards=1:\n--- shards=1 ---\n%s--- shards=%d ---\n%s", shards, want, shards, got)
		}
	}
}

// TestShardedScaleObsNeutral pins that instrumenting the run does not
// perturb its deterministic outcome.
func TestShardedScaleObsNeutral(t *testing.T) {
	spec, _ := products.Find("TrueSecure")
	want, _ := renderScale(t, spec, scaleTestConfig(2))
	cfg := scaleTestConfig(2)
	cfg.Obs = obs.NewRegistry()
	got, _ := renderScale(t, spec, cfg)
	if got != want {
		t.Error("telemetry-on run diverged from telemetry-off")
	}
	snap := cfg.Obs.Snapshot()
	found := false
	for _, c := range snap.Counters {
		if c.Name == "simtime.shard.windows" && c.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Error("coordinator instruments missing from registry")
	}
}

// TestShardedScaleDetection sanity-checks that a signature product
// actually catches the injected attacks at scale.
func TestShardedScaleDetection(t *testing.T) {
	spec, _ := products.Find("TrueSecure")
	_, res := renderScale(t, spec, scaleTestConfig(2))
	if res.AttacksInjected == 0 {
		t.Fatal("no attacks injected")
	}
	if res.AttacksDetected == 0 {
		t.Fatalf("TrueSecure detected 0/%d attacks", res.AttacksInjected)
	}
	if res.DelayMax <= 0 {
		t.Fatalf("detected attacks but DelayMax = %v", res.DelayMax)
	}
	if res.AlertsSeen == 0 || res.Incidents == 0 {
		t.Fatalf("alert pipeline silent: alerts=%d incidents=%d", res.AlertsSeen, res.Incidents)
	}
}

// TestShardedScaleCancellation checks a cancelled context halts the run
// with an error instead of completing.
func TestShardedScaleCancellation(t *testing.T) {
	spec, _ := products.Find("TrueSecure")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunShardedScale(ctx, spec, scaleTestConfig(2)); err == nil {
		t.Fatal("cancelled run returned no error")
	}
}

// benchScaleConfig is the ≥10k-host LargeConfig the
// BenchmarkShardedScaleShards* throughput benchmarks run against.
func benchScaleConfig(shards int) ShardedScaleConfig {
	return ShardedScaleConfig{
		Seed:            99,
		Segments:        32,
		HostsPerSegment: 320, // 10240 hosts
		ExternalHosts:   8,
		Shards:          shards,
		Duration:        250 * time.Millisecond,
		BackgroundPps:   1200,
		AttackEvery:     25 * time.Millisecond,
	}
}

func benchShardedScale(b *testing.B, shards int) {
	spec, ok := products.Find("TrueSecure")
	if !ok {
		b.Fatal("TrueSecure spec missing")
	}
	b.ReportAllocs()
	var events uint64
	var wall float64
	for i := 0; i < b.N; i++ {
		res, err := RunShardedScale(context.Background(), spec, benchScaleConfig(shards))
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
		wall += res.WallSeconds
	}
	if wall > 0 {
		b.ReportMetric(float64(events)/wall, "events/sec")
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

func BenchmarkShardedScaleShards1(b *testing.B) { benchShardedScale(b, 1) }
func BenchmarkShardedScaleShards2(b *testing.B) { benchShardedScale(b, 2) }
func BenchmarkShardedScaleShards4(b *testing.B) { benchShardedScale(b, 4) }
func BenchmarkShardedScaleShards8(b *testing.B) { benchShardedScale(b, 8) }
