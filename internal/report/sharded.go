package report

import (
	"fmt"
	"io"
	"time"

	"repro/internal/eval"
)

// ShardedScaleReport renders one at-scale sharded run. Only the
// deterministic fields of the result appear here: the report is byte-
// identical for every shard count at the same seed (wall-clock and
// events/sec go to stderr and the benchmarks instead).
func ShardedScaleReport(w io.Writer, r *eval.ShardedScaleResult) error {
	fmt.Fprintf(w, "== Sharded scale run: %s ==\n", r.Product)
	fmt.Fprintf(w, "topology: %d segments x %d hosts = %d hosts; train %v, score %v\n",
		r.Segments, r.HostsPerSegment, r.Hosts, r.TrainFor, r.Duration)
	fmt.Fprintf(w, "kernel: %d events, %d windows, %d cross-domain messages\n",
		r.Events, r.Windows, r.CrossMessages)
	fmt.Fprintf(w, "traffic: %d sent, %d tapped, %d mirror drops, %d sensor drops\n",
		r.PacketsSent, r.PacketsTapped, r.MirrorDrops, r.SensorDrops)
	fmt.Fprintf(w, "pipeline: %d alerts, %d incidents, %d notifications\n",
		r.AlertsSeen, r.Incidents, r.Notifications)
	fmt.Fprintf(w, "detection: %d/%d attacks", r.AttacksDetected, r.AttacksInjected)
	if r.AttacksInjected > 0 {
		fmt.Fprintf(w, " (%.1f%%)", 100*float64(r.AttacksDetected)/float64(r.AttacksInjected))
	}
	if r.AttacksDetected > 0 {
		fmt.Fprintf(w, "; delay p50=%v p95=%v max=%v", r.DelayP50, r.DelayP95, r.DelayMax)
	}
	fmt.Fprintln(w)

	t := &table{header: []string{"segment", "tapped", "mirror-drop", "sensor-drop", "alerts", "incidents", "attacks", "detected"}}
	for i, s := range r.PerSegment {
		t.addRow(
			fmt.Sprintf("%03d", i),
			fmt.Sprintf("%d", s.Tapped),
			fmt.Sprintf("%d", s.MirrorDrops),
			fmt.Sprintf("%d", s.SensorDrops),
			fmt.Sprintf("%d", s.AlertsSeen),
			fmt.Sprintf("%d", s.Incidents),
			fmt.Sprintf("%d", s.AttacksInjected),
			fmt.Sprintf("%d", s.AttacksDetected),
		)
	}
	return t.render(w)
}

// ShardedScaleAttribution renders the per-domain wall-clock profile of
// an instrumented sharded run: where each event domain's executor time
// went (busy executing vs blocked at the window barrier) and how evenly
// events spread across the partition. These are machine-dependent
// measurements — callers print them to stderr beside events/sec, never
// into the deterministic stdout report. No-op when the run was not
// instrumented.
func ShardedScaleAttribution(w io.Writer, r *eval.ShardedScaleResult) error {
	if len(r.Attribution) == 0 {
		return nil
	}
	var busiest, total float64
	for _, a := range r.Attribution {
		b := a.Busy.Seconds()
		total += b
		if b > busiest {
			busiest = b
		}
	}
	fmt.Fprintf(w, "%s: per-domain attribution (%d windows):\n", r.Product, r.Windows)
	t := &table{header: []string{"domain", "events", "busy", "blocked", "share"}}
	for _, a := range r.Attribution {
		share := 0.0
		if total > 0 {
			share = 100 * a.Busy.Seconds() / total
		}
		t.addRow(
			fmt.Sprintf("d%02d", a.Domain),
			fmt.Sprintf("%d", a.Events),
			fmt.Sprintf("%v", a.Busy.Round(time.Microsecond)),
			fmt.Sprintf("%v", a.Blocked.Round(time.Microsecond)),
			fmt.Sprintf("%.1f%%", share),
		)
	}
	if err := t.render(w); err != nil {
		return err
	}
	if busiest > 0 && total > 0 {
		// Balance: 1.0 means every domain worked equally; the reciprocal of
		// the busiest domain's share of a perfectly even split.
		fmt.Fprintf(w, "balance: %.2f (1.00 = even; busiest domain limits the parallel speedup)\n",
			total/(busiest*float64(len(r.Attribution))))
	}
	return nil
}
