// Command crashtorture is the storage-fault matrix for the harness's
// durability claims. It proves — not presumes — that every commit
// point in the campaign runner and the idsevald stream protocol
// recovers correctly under a hostile disk.
//
// For each scenario family (campaign run, idsevald ingest, idsevald
// shed), the tool first runs one clean cycle against a recording
// fault filesystem to enumerate the exact operation trace — every
// create, write, fsync, rename, truncate, remove, and directory sync
// the workload performs. It then generates one fault schedule per
// (operation × fault class): ENOSPC/EIO errors, short writes, lying
// fsyncs (acked but not durable, exposed by a later power cut),
// crash-stop at the operation, crash with a torn tail mid-write, and
// crash after a rename or remove applied. Each schedule replays the
// workload under injection, then recovers on the real filesystem and
// checks the system invariants:
//
//   - campaign: resume re-runs exactly the missing experiments and the
//     final report is byte-identical to an uninterrupted run; every
//     result file matches the clean run byte for byte.
//   - idsevald ingest: the ledger balances (submitted == delivered +
//     rejected + duplicate + pending + Σshed), Hello.next equals the
//     durable resume point, the resumed upload completes, and the
//     reassembled spool is byte-identical to the original trace.
//   - idsevald shed: a crash anywhere inside the shed sequence leaves
//     the stream either tombstoned with its chunks accounted or fully
//     intact and resumable — never silently emptied.
//   - everywhere: no torn file at a final path (every *.json parses).
//
// Schedules are deterministic: a failure's schedule label replays it
// exactly, which is how found bugs get pinned as regression tests.
//
// Usage:
//
//	crashtorture [-family all|campaign|ingest|shed] [-max N] [-v] [-dir D]
//
// The whole matrix runs in-process in well under a minute; `make
// crashmatrix` wires it into CI.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/fsio/faultfs"
	"repro/internal/packet"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/traffic"
)

var (
	flagFamily = flag.String("family", "all", "scenario family: all, campaign, ingest, or shed")
	flagMax    = flag.Int("max", 0, "cap schedules per family (0 = full matrix)")
	flagV      = flag.Bool("v", false, "log every schedule, not just failures")
	flagDir    = flag.String("dir", "", "scratch root (default: a fresh temp dir, removed on exit)")
)

func main() {
	flag.Parse()
	root := *flagDir
	if root == "" {
		var err error
		root, err = os.MkdirTemp("", "crashtorture-*")
		if err != nil {
			fatal("%v", err)
		}
		defer os.RemoveAll(root)
	} else {
		os.RemoveAll(root)
		if err := os.MkdirAll(root, 0o755); err != nil {
			fatal("%v", err)
		}
	}
	// The matrix injects hundreds of deliberate directory-sync and
	// append failures; keep their once-per-directory warnings out of
	// the CI log.
	prev := fsio.SetWarnLog(io.Discard)
	defer fsio.SetWarnLog(prev)

	start := time.Now()
	total, failed := 0, 0
	for _, fam := range families() {
		if *flagFamily != "all" && *flagFamily != fam.name {
			continue
		}
		t, f := runFamily(root, fam)
		total += t
		failed += f
	}
	if total == 0 {
		fatal("no families matched %q", *flagFamily)
	}
	fmt.Printf("crashtorture: %d schedules, %d failed (%v)\n", total, failed, time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crashtorture: "+format+"\n", args...)
	os.Exit(1)
}

// family is one workload shape: run drives the writes under an
// injecting filesystem; verify recovers on the real filesystem and
// checks every invariant. lying tells verify the schedule contained a
// lying fsync, which legitimately loses acked-but-not-durable state.
type family struct {
	name string
	// prepare runs once before the probe; its result is passed to every
	// cycle (the golden reference).
	prepare func(root string) (golden any, err error)
	run     func(dir string, fs fsio.FS, golden any) error
	verify  func(dir string, golden any, lying bool) error
}

func families() []family {
	return []family{
		{name: "campaign", prepare: prepareCampaign, run: runCampaign, verify: verifyCampaign},
		{name: "ingest", prepare: prepareIngest, run: runIngest, verify: verifyIngest},
		{name: "shed", prepare: prepareShed, run: runShed, verify: verifyShed},
	}
}

// schedule is one deterministic fault plan.
type schedule struct {
	label string
	rules []faultfs.Rule
	// crashAtEnd cuts the power after the workload completes — the only
	// way to expose a lying fsync.
	crashAtEnd bool
	lying      bool
}

// enumerate turns a probe trace into the fault matrix: one schedule
// per operation occurrence per applicable fault class.
func enumerate(probe []faultfs.Record) []schedule {
	occ := map[faultfs.Op]int{}
	var out []schedule
	add := func(class string, op faultfs.Op, n int, r faultfs.Rule) {
		r.Op, r.N = op, n
		out = append(out, schedule{
			label:      fmt.Sprintf("%s#%d:%s", op, n, class),
			rules:      []faultfs.Rule{r},
			crashAtEnd: r.SyncLie,
			lying:      r.SyncLie,
		})
	}
	for _, rec := range probe {
		occ[rec.Op]++
		n := occ[rec.Op]
		switch rec.Op {
		case faultfs.OpWrite:
			add("enospc", rec.Op, n, faultfs.Rule{Err: syscall.ENOSPC})
			add("short", rec.Op, n, faultfs.Rule{ShortWrite: true})
			add("crash-torn", rec.Op, n, faultfs.Rule{Crash: true, Partial: -1})
		case faultfs.OpSync:
			add("eio", rec.Op, n, faultfs.Rule{Err: syscall.EIO})
			add("lie", rec.Op, n, faultfs.Rule{SyncLie: true})
			add("crash", rec.Op, n, faultfs.Rule{Crash: true})
		case faultfs.OpRename:
			add("enospc", rec.Op, n, faultfs.Rule{Err: syscall.ENOSPC})
			add("crash-before", rec.Op, n, faultfs.Rule{Crash: true})
			add("crash-after", rec.Op, n, faultfs.Rule{Crash: true, After: true})
		case faultfs.OpRemove:
			add("crash-before", rec.Op, n, faultfs.Rule{Crash: true})
			add("crash-after", rec.Op, n, faultfs.Rule{Crash: true, After: true})
		case faultfs.OpCreate, faultfs.OpOpenAppend:
			add("enospc", rec.Op, n, faultfs.Rule{Err: syscall.ENOSPC})
			add("crash", rec.Op, n, faultfs.Rule{Crash: true})
		case faultfs.OpTruncate, faultfs.OpSyncDir:
			add("eio", rec.Op, n, faultfs.Rule{Err: syscall.EIO})
			add("crash", rec.Op, n, faultfs.Rule{Crash: true})
		}
	}
	return out
}

// runFamily probes the clean op trace, then runs the whole matrix.
func runFamily(root string, fam family) (total, failed int) {
	golden, err := fam.prepare(root)
	if err != nil {
		fatal("%s: prepare: %v", fam.name, err)
	}

	probeDir := filepath.Join(root, fam.name, "probe")
	probeFS := faultfs.New()
	if err := os.MkdirAll(probeDir, 0o755); err != nil {
		fatal("%v", err)
	}
	if err := fam.run(probeDir, probeFS, golden); err != nil {
		fatal("%s: clean probe cycle failed: %v", fam.name, err)
	}
	if err := fam.verify(probeDir, golden, false); err != nil {
		fatal("%s: clean probe cycle fails its own invariants: %v", fam.name, err)
	}
	scheds := enumerate(probeFS.Trace())
	if *flagMax > 0 && len(scheds) > *flagMax {
		fmt.Printf("crashtorture: %s: capping matrix at %d of %d schedules (-max)\n", fam.name, *flagMax, len(scheds))
		scheds = scheds[:*flagMax]
	}

	for i, sc := range scheds {
		dir := filepath.Join(root, fam.name, fmt.Sprintf("s%04d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal("%v", err)
		}
		ffs := faultfs.New(sc.rules...)
		// The workload is expected to fail under many schedules; only
		// recovery's verdict matters.
		runErr := fam.run(dir, ffs, golden)
		if sc.crashAtEnd {
			ffs.CrashNow()
		}
		if verr := fam.verify(dir, golden, sc.lying); verr != nil {
			failed++
			fmt.Printf("FAIL %s/%s: %v (workload err: %v)\n", fam.name, sc.label, verr, runErr)
		} else if *flagV {
			fmt.Printf("ok   %s/%s (injected=%d)\n", fam.name, sc.label, ffs.Injected())
		}
		os.RemoveAll(dir) // keep the scratch root small across ~hundreds of cycles
	}
	fmt.Printf("crashtorture: %s: %d schedules\n", fam.name, len(scheds))
	return len(scheds), failed
}

// checkFinalFiles walks dir and fails on any torn final-path artifact:
// a *.json or *.jsonl file that does not parse, or a stray atomic-write
// temp file.
func checkFinalFiles(dir string) error {
	return filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		name := filepath.Base(path)
		if strings.Contains(name, ".tmp-") {
			return fmt.Errorf("stray atomic-write temp file %s", path)
		}
		switch {
		case strings.HasSuffix(name, ".json"):
			b, rerr := os.ReadFile(path)
			if rerr != nil {
				return rerr
			}
			if !json.Valid(b) {
				return fmt.Errorf("torn JSON at final path %s", path)
			}
		case strings.HasSuffix(name, ".jsonl"):
			b, rerr := os.ReadFile(path)
			if rerr != nil {
				return rerr
			}
			for ln, line := range bytes.Split(b, []byte("\n")) {
				if len(bytes.TrimSpace(line)) == 0 {
					continue
				}
				if !json.Valid(line) {
					return fmt.Errorf("torn journal line %d at final path %s", ln+1, path)
				}
			}
		}
		return nil
	})
}

// ---------------------------------------------------------------------
// Family: campaign
// ---------------------------------------------------------------------

// campaignGolden is the reference output of an uninterrupted campaign.
type campaignGolden struct {
	report  []byte
	results map[string][]byte
}

func torSpec() *campaign.Spec {
	return &campaign.Spec{
		Name: "torture", Seed: 7,
		Products:    []string{"TrueSecure", "StreamHunter"},
		SweepPoints: 3,
	}
}

// synthExec makes every experiment instant and deterministic: the
// result is a pure function of the experiment, so the commit/journal
// discipline is exercised at full fidelity while the matrix stays fast.
func synthExec(_ context.Context, ex campaign.Experiment) (*campaign.Result, error) {
	return &campaign.Result{
		ID: ex.ID, Kind: ex.Kind, Product: ex.Product,
		Point: &campaign.PointResult{
			Index: ex.Index, Points: ex.Points,
			Sensitivity: 0.1 * float64(ex.Index+1),
			TypeI:       0.30 - 0.05*float64(ex.Index),
			TypeII:      0.10 + 0.05*float64(ex.Index),
		},
	}, nil
}

func campaignCycle(dir string, fs fsio.FS) error {
	spec := torSpec()
	if err := campaign.SavePlanFS(fs, dir, spec); err != nil {
		return err
	}
	r := &campaign.Runner{
		Dir: dir, Spec: spec, FS: fs, Workers: 2,
		MaxAttempts: 1, Backoff: time.Millisecond,
		Exec: synthExec,
	}
	_, err := r.Run(context.Background())
	return err
}

func renderReport(dir string) ([]byte, error) {
	st, err := campaign.Load(dir)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := report.CampaignReport(&buf, st, core.StandardRegistry()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func prepareCampaign(root string) (any, error) {
	dir := filepath.Join(root, "campaign", "golden")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := campaignCycle(dir, fsio.OS); err != nil {
		return nil, err
	}
	rep, err := renderReport(dir)
	if err != nil {
		return nil, err
	}
	g := &campaignGolden{report: rep, results: map[string][]byte{}}
	ents, err := os.ReadDir(filepath.Join(dir, "results"))
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, "results", e.Name()))
		if err != nil {
			return nil, err
		}
		g.results[e.Name()] = b
	}
	return g, nil
}

func runCampaign(dir string, fs fsio.FS, _ any) error { return campaignCycle(dir, fs) }

func verifyCampaign(dir string, golden any, _ bool) error {
	g := golden.(*campaignGolden)

	// How much work did the crash durably commit? The resumed run must
	// skip exactly that and re-run exactly the rest.
	committed := 0
	if entries, _, err := campaign.ReplayJournal(dir); err == nil {
		for id, e := range entries {
			if e.Status != campaign.StatusDone {
				continue
			}
			if _, lerr := campaign.LoadResult(dir, id); lerr == nil {
				committed++
			}
		}
	} // an unreadable journal is itself repaired by the resumed run below

	spec := torSpec()
	planned, err := spec.Plan()
	if err != nil {
		return err
	}
	r := &campaign.Runner{
		Dir: dir, Spec: spec, Workers: 2,
		MaxAttempts: 1, Backoff: time.Millisecond,
		Exec: synthExec,
	}
	if err := campaign.SavePlan(dir, spec); err != nil {
		return fmt.Errorf("re-saving plan: %w", err)
	}
	out, err := r.Run(context.Background())
	if err != nil {
		return fmt.Errorf("resume run: %w", err)
	}
	if out.Skipped != committed || out.Completed != len(planned)-committed {
		return fmt.Errorf("resume did not re-run exactly the missing work: %d committed before crash, resumed skipped=%d completed=%d of %d",
			committed, out.Skipped, out.Completed, len(planned))
	}

	rep, err := renderReport(dir)
	if err != nil {
		return fmt.Errorf("rendering resumed report: %w", err)
	}
	if !bytes.Equal(rep, g.report) {
		return fmt.Errorf("resumed report differs from uninterrupted run (%d vs %d bytes)", len(rep), len(g.report))
	}
	for name, want := range g.results {
		got, rerr := os.ReadFile(filepath.Join(dir, "results", name))
		if rerr != nil {
			return fmt.Errorf("result %s: %w", name, rerr)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("result %s differs from uninterrupted run", name)
		}
	}
	return checkFinalFiles(dir)
}

// ---------------------------------------------------------------------
// Family: idsevald ingest
// ---------------------------------------------------------------------

// ingestGolden carries the trace being uploaded, pre-chunked.
type ingestGolden struct {
	payload []byte
	chunks  [][]byte
}

const ingestStream = "tor"

func ingestMeta() serve.StreamMeta {
	return serve.StreamMeta{
		Name: ingestStream, Seed: 7, Quick: true,
		Products: []string{"TrueSecure"}, Sensitivity: 0.6,
	}
}

// buildTrace renders a small labeled IDT2 trace entirely in-process —
// the same recipe the serve tests use.
func buildTrace(seed int64) ([]byte, error) {
	var buf bytes.Buffer
	sw, err := trace.NewWriter(&buf, "ecommerce-edge", seed)
	if err != nil {
		return nil, err
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
		return nil, err
	}
	gen.Start(40)
	ctx := &attack.Context{Sim: sim, Rng: sim.Stream("attack"), Seq: seq, Eps: eps, Emit: rec.Emit, Gen: gen}
	camp := attack.NewCampaign(ctx)
	if err := camp.SpreadAcross(2*time.Second, 8*time.Second, []attack.Scenario{
		attack.Exploit{Count: 2}, attack.BruteForce{Attempts: 10},
	}); err != nil {
		return nil, err
	}
	sim.RunUntil(10 * time.Second)
	gen.Stop()
	sim.Run()
	if err := rec.Err(); err != nil {
		return nil, err
	}
	sw.SetIncidents(camp.Incidents())
	if err := sw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func chunked(payload []byte, n int) [][]byte {
	size := (len(payload) + n - 1) / n
	var out [][]byte
	for off := 0; off < len(payload); off += size {
		end := off + size
		if end > len(payload) {
			end = len(payload)
		}
		out = append(out, payload[off:end])
	}
	return out
}

func prepareIngest(string) (any, error) {
	payload, err := buildTrace(7)
	if err != nil {
		return nil, err
	}
	return &ingestGolden{payload: payload, chunks: chunked(payload, 3)}, nil
}

func ingestConfig(dir string, fs fsio.FS) serve.Config {
	return serve.Config{
		Dir: dir, FS: fs,
		// No eval workers: the matrix tortures the ingest protocol; the
		// campaign family tortures evaluation separately.
		EvalWorkers: -1,
		RetryAfter:  time.Millisecond,
	}
}

func runIngest(dir string, fs fsio.FS, golden any) error {
	g := golden.(*ingestGolden)
	svc, err := serve.Open(ingestConfig(dir, fs))
	if err != nil {
		return err
	}
	defer svc.Close()
	info, err := svc.Hello(ingestMeta())
	if err != nil {
		return err
	}
	for i := int(info.Next); i < len(g.chunks); i++ {
		if _, err := svc.Accept(ingestStream, uint32(i), g.chunks[i]); err != nil {
			return err
		}
	}
	return svc.Finish(ingestStream, uint64(len(g.chunks)), int64(len(g.payload)))
}

// countAckLines parses an ack journal the way recovery does: complete,
// valid, sequential lines whose bytes are covered by the spool.
func countAckLines(dir string) uint64 {
	spoolSize := int64(0)
	if fi, err := os.Stat(filepath.Join(dir, "trace.idt2")); err == nil {
		spoolSize = fi.Size()
	}
	data, err := os.ReadFile(filepath.Join(dir, "acks.jsonl"))
	if err != nil {
		return 0
	}
	var chunks uint64
	var covered int64
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e struct {
			Ord uint32 `json:"ord"`
			Len int    `json:"len"`
		}
		if json.Unmarshal(line, &e) != nil || uint64(e.Ord) != chunks || covered+int64(e.Len) > spoolSize {
			break
		}
		chunks++
		covered += int64(e.Len)
	}
	return chunks
}

func verifyIngest(dir string, golden any, lying bool) error {
	g := golden.(*ingestGolden)
	streamDir := filepath.Join(dir, "streams", ingestStream)

	// The durable resume point, read straight off the post-crash disk,
	// before recovery touches anything.
	expected := countAckLines(streamDir)

	svc, err := serve.Open(ingestConfig(dir, nil))
	if err != nil {
		return fmt.Errorf("recovery open: %w", err)
	}
	defer svc.Close()
	if err := svc.Counts().Check(); err != nil {
		return fmt.Errorf("ledger after recovery: %w", err)
	}

	info, err := svc.Hello(ingestMeta())
	if err != nil {
		return fmt.Errorf("hello after recovery: %w", err)
	}
	switch info.State {
	case serve.StateQueued, serve.StateRunning, serve.StateDone:
		// Finish committed before the fault: all chunks delivered.
		if info.Next != uint32(len(g.chunks)) {
			return fmt.Errorf("delivered stream reports next=%d, want %d", info.Next, len(g.chunks))
		}
	case serve.StateOpen:
		if lying {
			// A lying fsync may have lost acked state at the power cut;
			// the resume point must still match the durable disk.
			if uint64(info.Next) > expected {
				return fmt.Errorf("hello next=%d beyond durable resume point %d", info.Next, expected)
			}
		} else if info.Next != uint32(expected) {
			return fmt.Errorf("hello next=%d, durable ack journal says %d", info.Next, expected)
		}
		// Resume the upload to completion.
		for i := int(info.Next); i < len(g.chunks); i++ {
			if _, err := svc.Accept(ingestStream, uint32(i), g.chunks[i]); err != nil {
				return fmt.Errorf("resumed accept %d: %w", i, err)
			}
		}
		if err := svc.Finish(ingestStream, uint64(len(g.chunks)), int64(len(g.payload))); err != nil {
			return fmt.Errorf("resumed finish: %w", err)
		}
	default:
		return fmt.Errorf("stream in unexpected state %q after recovery", info.State)
	}

	// The reassembled spool must be the original trace, byte for byte.
	spool, err := os.ReadFile(filepath.Join(streamDir, "trace.idt2"))
	if err != nil {
		return fmt.Errorf("reading reassembled spool: %w", err)
	}
	if !bytes.Equal(spool, g.payload) {
		return fmt.Errorf("reassembled spool differs from original (%d vs %d bytes)", len(spool), len(g.payload))
	}
	if err := svc.Counts().Check(); err != nil {
		return fmt.Errorf("ledger after resume: %w", err)
	}
	if lying {
		// A lying fsync defeats write-then-rename atomicity: the rename
		// can land and the power cut then truncates the final path. The
		// system's defense is read-time validation plus heal-on-rewrite,
		// not prevention — so the no-torn-finals sweep does not apply.
		return nil
	}
	return checkFinalFiles(dir)
}

// ---------------------------------------------------------------------
// Family: idsevald shed
// ---------------------------------------------------------------------

// The shed family forces the spool-budget overload path: a victim
// stream uploads and goes quiet, a second stream's accept overflows the
// budget and sheds the victim. The crash matrix then cuts power at
// every point of the tombstone-and-remove sequence.

const (
	shedVictim = "victim"
	shedNoisy  = "noisy"
	shedChunk  = 1000
	shedBudget = 2500
)

func shedMeta(name string) serve.StreamMeta {
	return serve.StreamMeta{Name: name, Seed: 7, Quick: true, Evals: true, Products: []string{"TrueSecure"}}
}

func prepareShed(string) (any, error) { return nil, nil }

func runShed(dir string, fs fsio.FS, _ any) error {
	svc, err := serve.Open(serve.Config{
		Dir: dir, FS: fs, EvalWorkers: -1,
		MaxSpoolBytes: shedBudget, RetryAfter: time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	if _, err := svc.Hello(shedMeta(shedVictim)); err != nil {
		return err
	}
	chunk := bytes.Repeat([]byte{0xAB}, shedChunk)
	for i := 0; i < 2; i++ {
		if _, err := svc.Accept(shedVictim, uint32(i), chunk); err != nil {
			return err
		}
	}
	if _, err := svc.Hello(shedMeta(shedNoisy)); err != nil {
		return err
	}
	// 2000 + 1000 > 2500: this accept sheds the idle victim first.
	if _, err := svc.Accept(shedNoisy, 0, chunk); err != nil {
		return err
	}
	return nil
}

func verifyShed(dir string, _ any, lying bool) error {
	victimDir := filepath.Join(dir, "streams", shedVictim)
	noisyDir := filepath.Join(dir, "streams", shedNoisy)
	victimAcked := countAckLines(victimDir)
	noisyAcked := countAckLines(noisyDir)
	tombstoned := fileExists(filepath.Join(victimDir, "shed.json"))

	svc, err := serve.Open(serve.Config{
		Dir: dir, EvalWorkers: -1,
		MaxSpoolBytes: shedBudget, RetryAfter: time.Millisecond,
	})
	if err != nil {
		return fmt.Errorf("recovery open: %w", err)
	}
	defer svc.Close()
	if err := svc.Counts().Check(); err != nil {
		return fmt.Errorf("ledger after recovery: %w", err)
	}

	if st, ok := svc.Status(shedVictim); ok {
		switch st.State {
		case serve.StateShed:
			// Tombstoned: the chunks must be accounted and the dead spool
			// cleaned up by recovery.
			if !tombstoned {
				return fmt.Errorf("victim reports shed but no tombstone on disk")
			}
			if fileExists(filepath.Join(victimDir, "trace.idt2")) || fileExists(filepath.Join(victimDir, "acks.jsonl")) {
				return fmt.Errorf("shed victim still holds spool/ack files after recovery")
			}
			if counts := svc.Counts(); counts.Shed[serve.ShedOverload]+counts.Shed[serve.ShedIdle] != st.Chunks {
				return fmt.Errorf("victim shed %d chunks but ledger sheds account %d",
					st.Chunks, counts.Shed[serve.ShedOverload]+counts.Shed[serve.ShedIdle])
			}
		case serve.StateOpen:
			// Not tombstoned: the upload must be fully intact — a crash
			// inside the shed sequence must never silently empty a stream.
			info, herr := svc.Hello(shedMeta(shedVictim))
			if herr != nil {
				return fmt.Errorf("victim hello: %w", herr)
			}
			if lying {
				if info.Next > uint32(victimAcked) {
					return fmt.Errorf("victim next=%d beyond durable %d", info.Next, victimAcked)
				}
			} else if info.Next != uint32(victimAcked) {
				return fmt.Errorf("victim resurrected with next=%d, durable acks say %d — chunks silently lost", info.Next, victimAcked)
			}
		default:
			return fmt.Errorf("victim in unexpected state %q", st.State)
		}
	} else if !lying && (victimAcked > 0 || tombstoned) {
		// Under a lying fsync the victim's meta.json can be torn at the
		// final path, and a meta-less directory is legitimately swept.
		return fmt.Errorf("victim stream vanished despite durable state on disk")
	}

	if st, ok := svc.Status(shedNoisy); ok && st.State == serve.StateOpen {
		info, herr := svc.Hello(shedMeta(shedNoisy))
		if herr != nil {
			return fmt.Errorf("noisy hello: %w", herr)
		}
		if lying {
			if info.Next > uint32(noisyAcked) {
				return fmt.Errorf("noisy next=%d beyond durable %d", info.Next, noisyAcked)
			}
		} else if info.Next != uint32(noisyAcked) {
			return fmt.Errorf("noisy stream next=%d, durable acks say %d", info.Next, noisyAcked)
		}
	}
	if lying {
		return nil // see verifyIngest: torn finals are expected under a lying fsync
	}
	return checkFinalFiles(dir)
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
