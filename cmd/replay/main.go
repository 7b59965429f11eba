// Command replay feeds a canned trace (produced by trafficgen) through a
// product's testbed deployment and prints the Figure-3 accuracy summary —
// the paper's Lesson-2 methodology for observing the false negative
// ratio.
//
// The IDT2 trace streams chunk-by-chunk with a pipelined decoder and
// O(chunk) memory. Stage timings and the decoded-chunk count go to
// stderr, so stdout depends only on the trace and the flags.
//
// Usage:
//
//	replay -trace trace.idt2 [-product TrueSecure] [-sensitivity 0.6]
//	       [-train 15] [-seed 11] [-timeout 5m] [-telemetry]
//	       [-telemetry-jsonl F] [-listen ADDR] [-trace-out F]
//
// Ctrl-C (or -timeout expiry) halts the replay at a clean event
// boundary and exits without a result — a partially replayed trace is
// not scoreable.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/products"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	traceFile := flag.String("trace", "", "binary trace file (required)")
	productName := flag.String("product", "TrueSecure", "product under test")
	sensitivity := flag.Float64("sensitivity", 0.6, "detection sensitivity in [0,1]")
	trainSecs := flag.Float64("train", 15, "clean-baseline training seconds before replay")
	seed := flag.Int64("seed", 11, "testbed seed")
	timeout := flag.Duration("timeout", 0, "abort the replay after this wall-clock duration (0 = none)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	o := cli.AddObsFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := cli.Context(*timeout)
	defer stop()
	defer o.Close()

	if *traceFile == "" {
		fatal(fmt.Errorf("-trace is required"))
	}
	spec, ok := products.Find(*productName)
	if !ok {
		fatal(fmt.Errorf("unknown product %q", *productName))
	}
	stopProf, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}

	f, err := os.Open(*traceFile)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	rd, err := trace.NewReader(f)
	if err != nil {
		fatal(err)
	}

	// One registry carries the whole run: stage spans (always shown on
	// stderr, as before), plus decoder/pipeline instrumentation exported
	// when the obs flags ask for it. Telemetry never touches stdout.
	reg := o.Registry()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	o.SetSnapshot(reg.Snapshot)
	if err := o.Serve(ctx); err != nil {
		fatal(err)
	}
	dur := func(name string) time.Duration {
		d, _ := reg.SpanDur(name)
		return d.Round(time.Millisecond)
	}

	st := rd.Stats()
	fmt.Printf("replaying %q: %d packets, %d incidents, %v span (profile %s, seed %d)\n\n",
		*traceFile, st.Packets, len(rd.Incidents()), st.Duration().Round(time.Millisecond),
		rd.Profile(), rd.Seed())
	res, err := eval.RunTraceAccuracyStream(ctx, spec, rd, *sensitivity,
		time.Duration(*trainSecs*float64(time.Second)), *seed, reg)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "replay: streamed %d chunks: setup %v, train %v, replay %v, score %v\n",
		rd.ChunksRead(), dur("replay.setup"), dur("replay.train"),
		dur("replay.replay"), dur("replay.score"))

	fmt.Printf("%s %s at sensitivity %.2f:\n\n", spec.Name, spec.Version, *sensitivity)
	if err := report.AccuracySummary(os.Stdout, res); err != nil {
		fatal(err)
	}
	fmt.Println("\nsecond-order analysis (intruder intent):")
	if err := report.IntentProfiles(os.Stdout, res.Profiles); err != nil {
		fatal(err)
	}

	if err := o.Finish(nil); err != nil {
		fatal(err)
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "replay:", err)
	os.Exit(1)
}
