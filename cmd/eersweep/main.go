// Command eersweep reproduces Figure 4: it sweeps a product's detection
// sensitivity, measures the Type I (false positive) and Type II (false
// negative) error rates at each setting, locates the Equal Error Rate
// crossover, and prints the curves as a table, an ASCII plot, and
// optionally CSV.
//
// Usage:
//
//	eersweep [-product NetRecorder] [-points 6] [-seed 7] [-csv out.csv]
//	         [-quick] [-timeout 5m] [-telemetry] [-telemetry-jsonl F]
//	         [-listen ADDR] [-trace-out F]
//
// Ctrl-C (or -timeout expiry) drains in-flight points at a clean event
// boundary and prints the partial curve with an INTERRUPTED banner.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/eval"
	"repro/internal/fsio"
	"repro/internal/obs"
	"repro/internal/products"
	"repro/internal/report"
)

func main() {
	productName := flag.String("product", "NetRecorder", "product under test")
	points := flag.Int("points", 6, "sensitivity settings to sample")
	seed := flag.Int64("seed", 7, "testbed seed")
	csvFile := flag.String("csv", "", "also write the series as CSV")
	quick := flag.Bool("quick", false, "shrink run durations")
	workers := flag.Int("workers", 0, "worker-pool bound (0 = all cores, 1 = serial)")
	timeout := flag.Duration("timeout", 0, "abort the sweep after this wall-clock duration (0 = none)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	o := cli.AddObsFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := cli.Context(*timeout)
	defer stop()
	defer o.Close()
	if err := o.Serve(ctx); err != nil {
		fatal(err)
	}

	stopProf, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	spec, ok := products.Find(*productName)
	if !ok {
		fatal(fmt.Errorf("unknown product %q", *productName))
	}

	opts := eval.SweepOptions{Seed: *seed, Points: *points, Workers: *workers, Obs: o.Registry()}
	if *quick {
		opts.QuickScale()
	}
	fmt.Printf("sweeping %s %s across %d sensitivity settings...\n\n", spec.Name, spec.Version, *points)
	sw, err := eval.SensitivitySweep(ctx, spec, opts)
	if err != nil {
		if !cli.Interrupted(err) || sw == nil {
			fatal(err)
		}
		if perr := report.ErrorCurves(os.Stdout, sw); perr != nil {
			fatal(perr)
		}
		cli.Banner(os.Stdout, len(sw.Points), *points)
		os.Exit(1)
	}
	if err := report.ErrorCurves(os.Stdout, sw); err != nil {
		fatal(err)
	}
	if reg := o.Registry(); reg != nil {
		sw.Publish(reg)
		if ferr := o.Finish(nil); ferr != nil {
			fatal(ferr)
		}
	}
	if *csvFile != "" {
		err := fsio.WriteAtomic(*csvFile, func(w io.Writer) error {
			return report.SweepCSV(w, sw)
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nCSV written to %s\n", *csvFile)
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eersweep:", err)
	os.Exit(1)
}
