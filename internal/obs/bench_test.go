package obs

import (
	"testing"
	"time"
)

// The disabled-path benchmarks pin the cost of telemetry when it is
// switched off: a nil-receiver check, no atomics, no allocations.
// TestDisabledPathAllocFree and TestFlightDisabledAllocFree pin the
// zero-allocation half of that contract on every test run.

func BenchmarkCounterIncDisabled(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkGaugeUpdateDisabled(b *testing.B) {
	var g *Gauge
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Update(1)
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	var reg *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg.StartSpan("stage").End()
	}
}

func BenchmarkCounterIncEnabled(b *testing.B) {
	c := NewRegistry().Counter("bench.count")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserveEnabled(b *testing.B) {
	h := NewRegistry().Histogram("bench.lat_ns", ClockSim)
	v := int64(3 * time.Millisecond)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(v)
	}
}

func BenchmarkGaugeUpdateEnabled(b *testing.B) {
	g := NewRegistry().Gauge("bench.depth")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Update(1)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewRegistry().Histogram("bench.lat_ns", ClockSim)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(time.Microsecond)
		for pb.Next() {
			h.Observe(v)
		}
	})
}

func BenchmarkFlightRecordDisabled(b *testing.B) {
	var f *FlightRecorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Record(FlightWindow, 1, int64(i), 0, "w")
	}
}

func BenchmarkFlightRecordEnabled(b *testing.B) {
	f := NewFlightRecorder(1 << 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Record(FlightWindow, 1, int64(i), 0, "w")
	}
}

func BenchmarkSnapshot(b *testing.B) {
	reg := NewRegistry()
	for _, n := range []string{"a", "b", "c", "d"} {
		reg.Counter("count." + n).Inc()
		reg.Histogram("lat."+n, ClockSim).Observe(100)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = reg.Snapshot()
	}
}
