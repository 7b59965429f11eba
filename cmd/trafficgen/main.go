// Command trafficgen generates canned evaluation traces: background
// traffic from a site profile with the standard attack campaign layered
// on top, written in the streaming chunked binary format IDT2 (with
// ground-truth sidecar) or, for human inspection, as JSON lines. These
// are the "canned data with known attack content" the paper's Lesson 2
// calls for.
//
// Both encodings stream: records are encoded as the simulation emits
// them, so generation memory is O(chunk) regardless of trace length.
// Hosts follow the testbed address plan (netsim.ClusterAddr and
// netsim.ExternalAddr), so replay sizes its testbed from the trace.
//
// Usage:
//
//	trafficgen -o trace.idt2 [-profile ecommerce|cluster] [-seconds 60]
//	           [-pps 600] [-seed 21] [-attacks] [-strength 1.0]
//	           [-random-payloads] [-json] [-hosts 6] [-external 3]
//	           [-timeout 5m] [-telemetry]
//	           [-telemetry-jsonl F] [-listen ADDR] [-trace-out F]
//
// File output is atomic: the trace streams into a temp file in the
// output directory and is renamed into place only after the footer is
// written, so a crash or Ctrl-C never leaves a torn trace at -o.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/attack"
	"repro/internal/cli"
	"repro/internal/fsio"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/traffic"
)

func main() {
	out := flag.String("o", "", "output file (required; '-' for stdout)")
	profileName := flag.String("profile", "ecommerce", "traffic profile: ecommerce, cluster, or campus")
	seconds := flag.Float64("seconds", 60, "trace duration in virtual seconds")
	pps := flag.Float64("pps", 600, "target background packet rate")
	seed := flag.Int64("seed", 21, "generation seed")
	withAttacks := flag.Bool("attacks", true, "layer the standard attack campaign over the background")
	strength := flag.Float64("strength", 1.0, "attack intensity multiplier")
	randomPayloads := flag.Bool("random-payloads", false, "replace payloads with random bytes (Lesson-1 ablation)")
	asJSON := flag.Bool("json", false, "write JSON lines instead of binary")
	hosts := flag.Int("hosts", 6, "cluster host count")
	external := flag.Int("external", 3, "external host count")
	timeout := flag.Duration("timeout", 0, "abort generation after this wall-clock duration (0 = none)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	o := cli.AddObsFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := cli.Context(*timeout)
	defer stop()
	defer o.Close()

	if *out == "" {
		fatal(fmt.Errorf("-o is required"))
	}
	if *hosts > netsim.PlanCapacity || *external > netsim.PlanCapacity {
		fatal(fmt.Errorf("-hosts and -external may not exceed the address plan's %d", netsim.PlanCapacity))
	}
	stopProf, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	reg := o.Registry()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	o.SetSnapshot(reg.Snapshot)
	if err := o.Serve(ctx); err != nil {
		fatal(err)
	}
	var profile traffic.Profile
	switch *profileName {
	case "ecommerce":
		profile = traffic.EcommerceEdge()
	case "cluster":
		profile = traffic.RealTimeCluster()
	case "campus":
		profile = traffic.EnterpriseCampus()
	default:
		fatal(fmt.Errorf("unknown profile %q", *profileName))
	}
	if *randomPayloads {
		profile = profile.WithRandomPayloads()
	}

	// File output goes through an atomic temp file: commit renames it
	// into place, and any fatal path (including Ctrl-C) aborts the temp
	// so -o never holds a torn trace.
	var f io.Writer
	commit := func() error { return nil }
	if *out == "-" {
		f = os.Stdout
	} else {
		af, err := fsio.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer af.Abort()
		cleanup = af.Abort // fatal exits without running defers
		f = af
		commit = af.Commit
	}

	var tw traceWriter
	if *asJSON {
		tw = trace.NewJSONLWriter(f, profile.Name, *seed)
	} else if tw, err = trace.NewWriter(f, profile.Name, *seed); err != nil {
		fatal(err)
	}
	sim := simtime.New(*seed)
	sim.SetInterrupt(ctx.Err)
	rec := trace.NewStreamRecorder(sim, tw)

	seq := &packet.SeqCounter{}
	var eps traffic.Endpoints
	for i := 0; i < *hosts; i++ {
		eps.Cluster = append(eps.Cluster, netsim.ClusterAddr(i))
	}
	for i := 0; i < *external; i++ {
		eps.External = append(eps.External, netsim.ExternalAddr(i))
	}
	gen, err := traffic.NewGenerator(sim, profile, eps, seq, rec.Emit)
	if err != nil {
		fatal(err)
	}
	if err := gen.Start(gen.SessionRateForPps(*pps)); err != nil {
		fatal(err)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var camp *attack.Campaign
	if *withAttacks {
		ctx := &attack.Context{Sim: sim, Rng: sim.Stream("attack"), Seq: seq, Emit: rec.Emit, Eps: eps, Gen: gen}
		camp = attack.NewCampaign(ctx)
		if err := camp.SpreadAcross(dur/10, dur*8/10, attack.StandardScenarios(attack.Intensity(*strength))); err != nil {
			fatal(err)
		}
	}
	sp := reg.StartSpan("trafficgen.generate")
	sim.RunUntil(dur)
	gen.Stop()
	sim.Run()
	sp.End()
	if err := sim.Interrupted(); err != nil {
		fatal(fmt.Errorf("generation interrupted (%v) — no trace written", err))
	}
	if err := rec.Err(); err != nil {
		fatal(err)
	}

	var incidents int
	if camp != nil {
		tw.SetIncidents(camp.Incidents())
		incidents = len(camp.Incidents())
	}
	if err := tw.Close(); err != nil {
		fatal(err)
	}
	if err := commit(); err != nil {
		fatal(err)
	}
	s := tw.Stats()
	avgPps := 0.0
	if d := s.Duration(); d > 0 {
		avgPps = float64(s.Packets) / d.Seconds()
	}
	fmt.Fprintf(os.Stderr, "trace: %d packets (%d malicious) over %v, %d incidents, %.0f pps avg, %d bytes (%d chunks)\n",
		s.Packets, s.MaliciousPkts, s.Duration().Round(time.Millisecond), incidents, avgPps, s.Bytes, s.Chunks)
	publishTraceStats(reg, s)
	if err := o.Finish(nil); err != nil {
		fatal(err)
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
}

// traceWriter is what trafficgen needs of a streaming trace encoder:
// *trace.Writer for IDT2, *trace.JSONLWriter for -json.
type traceWriter interface {
	trace.Appender
	SetIncidents(incs []attack.Incident)
	Stats() trace.StreamStats
	Close() error
}

// publishTraceStats records the final trace shape as gauges so the
// telemetry dump carries the same numbers the stderr summary prints.
func publishTraceStats(reg *obs.Registry, s trace.StreamStats) {
	reg.Gauge("trafficgen.packets").Set(int64(s.Packets))
	reg.Gauge("trafficgen.malicious").Set(int64(s.MaliciousPkts))
	reg.Gauge("trafficgen.bytes").Set(int64(s.Bytes))
	reg.Gauge("trafficgen.chunks").Set(int64(s.Chunks))
}

// cleanup aborts the in-progress atomic trace write on fatal exit, so
// no .tmp file is left behind.
var cleanup func()

func fatal(err error) {
	if cleanup != nil {
		cleanup()
	}
	fmt.Fprintln(os.Stderr, "trafficgen:", err)
	os.Exit(1)
}
