package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuModules are the buckets self CPU is folded into: the harness's
// modules, the Go runtime's collector and allocator, and everything
// else (the standard library, the rest of the runtime, the benchmark).
var cpuModules = []string{
	"simtime", "traffic", "netsim", "detect", "ids", "hostmon", "rts", "attack",
	"eval", "core", "trace", "serve", "fsio", "campaign",
	"runtime.gc", "runtime.alloc", "other",
}

// startCPUProfile profiles this process into path until stop is called.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// foldProfile folds a CPU profile's self time by module with the
// toolchain's pprof. It returns seconds per module and the profile's
// total, which the modules sum to.
func foldProfile(path string) (map[string]float64, float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-unit=ms", "-symbolize=none", path)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTop(string(out))
}

// foldTop parses `pprof -top -unit=ms` text: each row's flat time goes
// to the module of its function.
func foldTop(text string) (map[string]float64, float64, error) {
	byMod := map[string]float64{}
	for _, m := range cpuModules {
		byMod[m] = 0
	}
	total := -1.0
	inRows := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "Showing nodes accounting for") {
			// "... for 2180ms, 100% of 2180ms total"
			f := strings.Fields(line)
			if len(f) >= 2 {
				v, err := parseMs(f[len(f)-2])
				if err != nil {
					return nil, 0, err
				}
				total = v
			}
			continue
		}
		if strings.HasPrefix(line, "flat") {
			inRows = true
			continue
		}
		if !inRows || line == "" {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 {
			return nil, 0, fmt.Errorf("pprof row %q: want 6 fields", line)
		}
		flat, err := parseMs(f[0])
		if err != nil {
			return nil, 0, err
		}
		fn := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		byMod[module(fn)] += flat
	}
	if total < 0 {
		return nil, 0, fmt.Errorf("pprof output has no total line")
	}
	return byMod, total, nil
}

// parseMs reads a pprof value printed in milliseconds ("2180ms", "0").
func parseMs(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
	if err != nil {
		return 0, fmt.Errorf("pprof value %q: %w", s, err)
	}
	return v / 1000, nil
}

// module maps a profiled function to its cpuModules bucket.
func module(fn string) string {
	// The package path ends at the first dot after its last slash;
	// slashes inside type arguments or receivers do not count.
	head := fn
	if k := strings.IndexAny(head, "[("); k >= 0 {
		head = head[:k]
	}
	pkg := fn
	i := strings.LastIndex(head, "/") + 1
	if j := strings.Index(fn[i:], "."); j >= 0 {
		pkg = fn[:i+j]
	}
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		mod, _, _ := strings.Cut(rest, "/")
		for _, m := range cpuModules {
			if m == mod {
				return m
			}
		}
		return "other"
	}
	if pkg == "runtime" {
		name := strings.TrimPrefix(fn, "runtime.")
		if strings.HasPrefix(strings.TrimPrefix(name, "(*"), "gc") {
			return "runtime.gc"
		}
		for _, p := range gcFuncs {
			if strings.Contains(name, p) {
				return "runtime.gc"
			}
		}
		for _, p := range allocFuncs {
			if strings.Contains(name, p) {
				return "runtime.alloc"
			}
		}
	}
	return "other"
}

// gcFuncs and allocFuncs are name fragments of the runtime's collector
// and allocator. Asynchronous preemption is counted as collection: in
// these serial workloads the stack scans of the collector are what
// request it.
var (
	gcFuncs = []string{
		"mark", "scan", "greyobject", "findObject", "wbBuf", "BarrierPreWrite",
		"sweep", "Sweep", "reclaim", "scavenge", "heapBits", "typePointers", "spanOf",
		"asyncPreempt", "assist", "finalizer",
	}
	allocFuncs = []string{
		"malloc", "nextFree", "mcache", "mcentral", "mheap", "newobject", "newarray",
		"makeslice", "growslice", "makemap", "memclrNoHeapPointers", "heapSetType",
		"allocSpan", "profilealloc", "publicationBarrier", "rawstring", "rawbyteslice",
		"slicebytetostring", "concatstring",
	}
)
