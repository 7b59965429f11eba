package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func TestFoldTopFixture(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("testdata", "top.txt"))
	if err != nil {
		t.Fatal(err)
	}
	byMod, total, err := foldTop(string(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"runtime.gc":    0.26, // asyncPreempt + gcDrain
		"simtime":       0.20,
		"traffic":       0.14,
		"detect":        0.10,
		"runtime.alloc": 0.09,
		"other":         0.21, // memmove, par (type args name eval), httpexport is obs, math/rand
	}
	if total != 1.0 {
		t.Errorf("total = %v, want 1.0", total)
	}
	sum := 0.0
	for _, m := range cpuModules {
		got := byMod[m]
		sum += got
		if math.Abs(got-want[m]) > 1e-9 {
			t.Errorf("%s = %v, want %v", m, got, want[m])
		}
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Errorf("modules sum to %v, profile total %v", sum, total)
	}
}

func TestModule(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/serve.(*Service).Accept":      "serve",
		"repro/internal/fsio/faultfs.(*FS).Rename":    "fsio",
		"repro/internal/products.All":                 "other",
		"runtime.(*gcWork).tryGet":                    "runtime.gc",
		"runtime.scanobject":                          "runtime.gc",
		"runtime.(*mcache).refill":                    "runtime.alloc",
		"runtime.mallocgc":                            "runtime.alloc",
		"runtime.futex":                               "other",
		"main.main":                                   "other",
		"repro/internal/eval.EvaluateProduct.func1.1": "eval",
	} {
		if got := module(fn); got != want {
			t.Errorf("module(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestFoldRealProfile profiles a busy loop and folds it with the
// toolchain's pprof: the modules must add up to the profile's total.
func TestFoldRealProfile(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not in PATH")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	stop, err := startCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		x += len(make([]byte, 64))
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	byMod, total, err := foldProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range byMod {
		sum += v
	}
	if total <= 0 || math.Abs(sum-total) > 0.05*total {
		t.Errorf("modules sum to %v, profile total %v (loop ran %d)", sum, total, x)
	}
}
