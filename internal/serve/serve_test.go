package serve_test

// The service's three contracts under test: exact shed accounting
// (every chunk in exactly one ledger class, at all times, under
// concurrent overload), ack-is-durable resume (a killed daemon
// restarts exactly after the last acked chunk, tolerating torn
// journals), and byte-identical recovery (an interrupted-and-resumed
// stream renders the same scorecard as an uninterrupted one).

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/obs/httpexport"
	"repro/internal/packet"
	"repro/internal/serve"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// buildTraceBytes renders a small labeled IDT2 trace, cached per seed —
// generation costs a simulation run and several tests share it.
var traceCache sync.Map

func buildTraceBytes(t testing.TB, seed int64) []byte {
	t.Helper()
	if b, ok := traceCache.Load(seed); ok {
		return b.([]byte)
	}
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
	traceCache.Store(seed, buf.Bytes())
	return buf.Bytes()
}

// quickMeta is the evaluation shape the chaos tests use: one product,
// trace replay only, quick scale.
func quickMeta(name string) serve.StreamMeta {
	return serve.StreamMeta{
		Name: name, Seed: 7, Quick: true,
		Products: []string{"TrueSecure"}, Sensitivity: 0.6,
	}
}

func openService(t testing.TB, dir string, mut func(*serve.Config)) *serve.Service {
	t.Helper()
	cfg := serve.Config{Dir: dir, Backoff: time.Millisecond, StallTimeout: -1}
	if mut != nil {
		mut(&cfg)
	}
	svc, err := serve.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// chunked splits data into fixed-size pieces.
func chunked(data []byte, size int) [][]byte {
	var out [][]byte
	for len(data) > 0 {
		n := size
		if n > len(data) {
			n = len(data)
		}
		out = append(out, data[:n])
		data = data[n:]
	}
	return out
}

// uploadAll pushes every chunk from the stream's resume point and
// finishes.
func uploadAll(t *testing.T, svc *serve.Service, meta serve.StreamMeta, chunks [][]byte) {
	t.Helper()
	info, err := svc.Hello(meta)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range chunks {
		total += int64(len(c))
	}
	for i := int(info.Next); i < len(chunks); i++ {
		if _, err := svc.Accept(meta.Name, uint32(i), chunks[i]); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	if err := svc.Finish(meta.Name, uint64(len(chunks)), total); err != nil {
		t.Fatal(err)
	}
}

// awaitDone polls until the stream reaches a terminal state and
// returns its scorecard.
func awaitDone(t *testing.T, svc *serve.Service, name string) []byte {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		status, ok := svc.Status(name)
		if !ok {
			t.Fatalf("stream %s vanished", name)
		}
		switch status.State {
		case serve.StateDone:
			card, err := svc.Scorecard(name)
			if err != nil {
				t.Fatal(err)
			}
			return card
		case serve.StateFailed, serve.StateShed:
			t.Fatalf("stream %s ended %s: %s", name, status.State, status.Reason)
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("stream %s not done within deadline", name)
	return nil
}

// referenceScorecard runs the stream uninterrupted in a fresh
// directory — the byte-identity oracle for the chaos tests.
func referenceScorecard(t *testing.T, name string, chunks [][]byte) []byte {
	t.Helper()
	svc := openService(t, t.TempDir(), nil)
	defer svc.Close()
	uploadAll(t, svc, quickMeta(name), chunks)
	return awaitDone(t, svc, name)
}

func checkLedger(t *testing.T, svc *serve.Service) {
	t.Helper()
	if err := svc.Counts().Check(); err != nil {
		t.Fatal(err)
	}
}

func TestIngestEvaluateScorecardOverTCP(t *testing.T) {
	data := buildTraceBytes(t, 31)
	chunks := chunked(data, 48<<10)

	svc := openService(t, t.TempDir(), nil)
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go svc.ServeTCP(ln)

	c, err := serve.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Hello(quickMeta("tcp1")); err != nil {
		t.Fatal(err)
	}
	if c.Next != 0 || c.State != serve.StateOpen {
		t.Fatalf("hello = next %d state %s, want 0/open", c.Next, c.State)
	}
	for _, chunk := range chunks {
		if err := c.SendChunkRetry(chunk, 3, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FinishRetry(uint64(len(chunks)), int64(len(data)), 3, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var results int
	card, err := c.Await(3*time.Minute, func(kind serve.EventKind, _ []byte) {
		if kind == serve.EventResult {
			results++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(card) == 0 || !bytes.Contains(card, []byte("TrueSecure")) {
		t.Fatalf("scorecard missing product section:\n%s", card)
	}
	if results == 0 {
		t.Fatal("no incremental Result frames before the scorecard")
	}

	counts := svc.Counts()
	if counts.Delivered != uint64(len(chunks)) || counts.Pending != 0 {
		t.Fatalf("ledger after completion: %+v", counts)
	}
	checkLedger(t, svc)
	if h := svc.Health(); h != httpexport.HealthOK {
		t.Fatalf("health = %q after clean completion", h)
	}
}

func TestUploadResumeAfterKillIsByteIdentical(t *testing.T) {
	data := buildTraceBytes(t, 31)
	chunks := chunked(data, 48<<10)
	want := referenceScorecard(t, "chaos", chunks)

	dir := t.TempDir()
	svc := openService(t, dir, nil)
	meta := quickMeta("chaos")
	if _, err := svc.Hello(meta); err != nil {
		t.Fatal(err)
	}
	half := len(chunks) / 2
	for i := 0; i < half; i++ {
		if _, err := svc.Accept("chaos", uint32(i), chunks[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Close == crash by construction: every durable structure is
	// already consistent at all instants.
	svc.Close()

	// Make the crash nastier than Close can: a torn ack-journal line
	// and spool bytes whose ack never committed (kill between the two
	// fsyncs).
	sdir := filepath.Join(dir, "streams", "chaos")
	tear(t, filepath.Join(sdir, "acks.jsonl"), `{"ord":99,"le`)
	tear(t, filepath.Join(sdir, "trace.idt2"), "unjournaled tail bytes")

	svc2 := openService(t, dir, nil)
	defer svc2.Close()
	info, err := svc2.Hello(meta)
	if err != nil {
		t.Fatal(err)
	}
	if info.Next != uint32(half) || info.State != serve.StateOpen {
		t.Fatalf("resume hello = next %d state %s, want %d/open", info.Next, info.State, half)
	}
	counts := svc2.Counts()
	if counts.Pending != uint64(half) || counts.Submitted != uint64(half) {
		t.Fatalf("recovered ledger: %+v, want %d pending", counts, half)
	}
	checkLedger(t, svc2)

	uploadAll(t, svc2, meta, chunks)
	got := awaitDone(t, svc2, "chaos")
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed scorecard differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	checkLedger(t, svc2)
}

// tear appends a raw fragment to a file, simulating a torn write.
func tear(t *testing.T, path, fragment string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(fragment); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

func TestKillDuringEvaluationResumesByteIdentical(t *testing.T) {
	data := buildTraceBytes(t, 31)
	chunks := chunked(data, 48<<10)
	want := referenceScorecard(t, "chaos2", chunks)

	dir := t.TempDir()
	svc := openService(t, dir, nil)
	uploadAll(t, svc, quickMeta("chaos2"), chunks)
	// Give the evaluation a moment to start (and likely commit some
	// experiments), then kill the daemon mid-flight.
	time.Sleep(150 * time.Millisecond)
	svc.Close()

	svc2 := openService(t, dir, nil)
	defer svc2.Close()
	status, ok := svc2.Status("chaos2")
	if !ok {
		t.Fatal("stream lost across restart")
	}
	if status.State != serve.StateQueued && status.State != serve.StateRunning && status.State != serve.StateDone {
		t.Fatalf("restarted stream state = %s, want re-queued or done", status.State)
	}
	counts := svc2.Counts()
	if counts.Delivered != uint64(len(chunks)) {
		t.Fatalf("delivered %d across restart, want %d", counts.Delivered, len(chunks))
	}
	checkLedger(t, svc2)

	got := awaitDone(t, svc2, "chaos2")
	if !bytes.Equal(got, want) {
		t.Fatalf("post-kill scorecard differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

func TestOverloadSoakKeepsExactAccounting(t *testing.T) {
	// A small spool budget and several concurrent writers force the
	// whole backpressure surface: accepts, duplicates, out-of-order
	// rejects, budget rejects, and overload sheds. The invariant must
	// hold at every instant a concurrent checker observes, and the
	// client-observed outcomes must reconcile with the ledger exactly.
	svc := openService(t, t.TempDir(), func(c *serve.Config) {
		c.MaxSpoolBytes = 192 << 10
		c.MaxStreams = 8
		c.RetryAfter = time.Millisecond
	})
	defer svc.Close()

	stop := make(chan struct{})
	var checkerErr atomic.Value
	var checks atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				if err := svc.Counts().Check(); err != nil {
					checkerErr.Store(err)
					return
				}
				checks.Add(1)
			}
		}
	}()

	const writers = 6
	const perWriter = 120
	var submitted atomic.Int64
	var wg sync.WaitGroup
	payload := bytes.Repeat([]byte{0xAB}, 8<<10)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("soak-%d", w)
			if _, err := svc.Hello(serve.StreamMeta{Name: name, Evals: true, Quick: true}); err != nil {
				t.Errorf("hello %s: %v", name, err)
				return
			}
			next := uint32(0)
			for i := 0; i < perWriter; i++ {
				ord := next
				switch i % 7 {
				case 3:
					if ord > 0 {
						ord-- // deliberate duplicate
					}
				case 5:
					ord += 2 // deliberate ordering violation
				}
				submitted.Add(1)
				ai, err := svc.Accept(name, ord, payload)
				if err == nil && !ai.Dup {
					next = ai.Next
				}
				// Rejections and protocol errors are expected under
				// pressure; the ledger must have classified them.
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err, _ := checkerErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	if checks.Load() == 0 {
		t.Fatal("invariant checker never ran")
	}

	counts := svc.Counts()
	checkLedger(t, svc)
	if counts.Submitted != uint64(submitted.Load()) {
		t.Fatalf("ledger submitted %d, clients submitted %d", counts.Submitted, submitted.Load())
	}
	if counts.Shed[serve.ShedOverload] == 0 {
		t.Fatalf("soak never triggered overload shedding: %+v", counts)
	}
	if counts.Rejected == 0 || counts.Duplicate == 0 {
		t.Fatalf("soak missed a classification: %+v", counts)
	}
	// Spool usage stays within budget + one in-flight chunk per writer:
	// memory and disk are bounded under sustained overload.
	var live int64
	for _, status := range svc.Streams() {
		if status.State == serve.StateOpen {
			live += status.Bytes
		}
	}
	if max := int64(192<<10) + writers*int64(len(payload)); live > max {
		t.Fatalf("live spool %d exceeds budget bound %d", live, max)
	}
}

func TestHealthTransitionsAndDrain(t *testing.T) {
	svc := openService(t, t.TempDir(), func(c *serve.Config) {
		c.ShedWindow = time.Hour // keep the shed visible for the assertion
	})
	if h := svc.Health(); h != httpexport.HealthOK {
		t.Fatalf("fresh service health = %q", h)
	}

	// A protocol violation at finish sheds the stream → degraded.
	if _, err := svc.Hello(serve.StreamMeta{Name: "bad", Evals: true, Quick: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Accept("bad", 0, []byte("xx")); err != nil {
		t.Fatal(err)
	}
	err := svc.Finish("bad", 5, 999)
	var pe *serve.ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("mismatched finish = %v, want ProtocolError", err)
	}
	if h := svc.Health(); h != httpexport.HealthDegraded {
		t.Fatalf("health after shed = %q, want degraded", h)
	}
	counts := svc.Counts()
	if counts.Shed[serve.ShedProtocol] != 1 {
		t.Fatalf("protocol shed not accounted: %+v", counts)
	}
	checkLedger(t, svc)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if h := svc.Health(); h != httpexport.HealthDraining {
		t.Fatalf("health after drain = %q, want draining", h)
	}
	// Drained service rejects new work with a retry hint.
	_, err = svc.Hello(serve.StreamMeta{Name: "late", Evals: true})
	var re *serve.RejectError
	if !errors.As(err, &re) || re.RetryAfter <= 0 {
		t.Fatalf("hello while draining = %v, want RejectError with Retry-After", err)
	}
}

// footerOffset locates an IDT2 stream's footer block through the
// 12-byte trailer (footer offset u64, magic u32) that ends the stream.
func footerOffset(data []byte) int {
	return int(binary.BigEndian.Uint64(data[len(data)-12:]))
}

// expectShedCorrupt uploads data as one stream and requires Finish to
// refuse it with a ProtocolError, shedding every chunk as corrupt, with
// the ledger balanced.
func expectShedCorrupt(t *testing.T, name string, data []byte) {
	t.Helper()
	svc := openService(t, t.TempDir(), func(c *serve.Config) {
		c.ShedWindow = time.Hour // keep the shed visible for the assertion
	})
	defer svc.Close()
	chunks := chunked(data, 16<<10)
	if _, err := svc.Hello(quickMeta(name)); err != nil {
		t.Fatal(err)
	}
	for i, c := range chunks {
		if _, err := svc.Accept(name, uint32(i), c); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	err := svc.Finish(name, uint64(len(chunks)), int64(len(data)))
	var pe *serve.ProtocolError
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "IDT2 validation") {
		t.Fatalf("finish = %v, want a ProtocolError from spool validation", err)
	}
	status, ok := svc.Status(name)
	if !ok || status.State != serve.StateShed || status.Reason != string(serve.ShedCorrupt) {
		t.Fatalf("status after finish = %+v, want shed (corrupt)", status)
	}
	counts := svc.Counts()
	if counts.Shed[serve.ShedCorrupt] != uint64(len(chunks)) || counts.Delivered != 0 || counts.Pending != 0 {
		t.Fatalf("ledger = %+v, want all %d chunks shed as corrupt", counts, len(chunks))
	}
	checkLedger(t, svc)
}

func TestFinishShedsLyingFooter(t *testing.T) {
	// The footer claims 60,000 cluster hosts — within the address plan,
	// so the stream opens — but the records touch three.
	data := append([]byte(nil), buildTraceBytes(t, 31)...)
	clusterHosts := footerOffset(data) + 5 + 8 + 48 // block header, incidents offset, six u64 stats
	binary.BigEndian.PutUint32(data[clusterHosts:], 60000)
	expectShedCorrupt(t, "lying-footer", data)
}

func TestFinishShedsFooterlessUpload(t *testing.T) {
	data := buildTraceBytes(t, 31)
	expectShedCorrupt(t, "no-footer", data[:footerOffset(data)])
}

func TestAdmissionControlRejectsBeyondMaxStreams(t *testing.T) {
	svc := openService(t, t.TempDir(), func(c *serve.Config) {
		c.MaxStreams = 1
	})
	defer svc.Close()
	if _, err := svc.Hello(serve.StreamMeta{Name: "one", Evals: true}); err != nil {
		t.Fatal(err)
	}
	_, err := svc.Hello(serve.StreamMeta{Name: "two", Evals: true})
	var re *serve.RejectError
	if !errors.As(err, &re) || re.RetryAfter <= 0 {
		t.Fatalf("hello past MaxStreams = %v, want RejectError", err)
	}
	// Rejected hello carries no chunks; ledger untouched.
	if got := svc.Counts().Submitted; got != 0 {
		t.Fatalf("hello reject booked %d chunks", got)
	}
}

// TestServeIngestAllocs pins the allocation profile of the durable-ack
// path BenchmarkServeIngest measures: one spool append + fsync, then one
// ack-journal append + fsync per 64 KiB chunk, at no more than 2
// allocations per chunk. The regression this catches is an accidental
// copy or buffer per chunk, which shows up here exactly, while the
// path's throughput swings with host IO.
func TestServeIngestAllocs(t *testing.T) {
	svc := openService(t, t.TempDir(), func(c *serve.Config) {
		c.MaxSpoolBytes = 1 << 40
	})
	defer svc.Close()
	if _, err := svc.Hello(serve.StreamMeta{Name: "allocs", Evals: true, Quick: true}); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 64<<10)
	ord := uint32(0)
	accept := func() {
		if _, err := svc.Accept("allocs", ord, payload); err != nil {
			t.Fatal(err)
		}
		ord++
	}
	for i := 0; i < 8; i++ {
		accept() // warm spool, journal and ledger
	}
	if n := testing.AllocsPerRun(50, accept); n > 2 {
		t.Fatalf("Accept allocates %.1f per 64 KiB chunk, want <= 2", n)
	}
}

func BenchmarkServeIngest(b *testing.B) {
	// The durable-ack hot path: one spool append + fsync, one ack-line
	// append + fsync per chunk. MB/s here is what a single lock-step
	// uploader sees; TestServeIngestAllocs pins its allocations.
	//
	// The service dir goes on tmpfs when the host has one: on a disk,
	// fsync latency swamps the code path under measurement and varies
	// 2-3x run to run with unrelated IO, which no regression gate can
	// hold. tmpfs keeps the full durable call sequence (two fsyncs per
	// chunk) while making the number about this package's code.
	dir := b.TempDir()
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		shm, err := os.MkdirTemp("/dev/shm", "serve-bench-")
		if err == nil {
			b.Cleanup(func() { os.RemoveAll(shm) })
			dir = shm
		}
	}
	svc := openService(b, dir, func(c *serve.Config) {
		c.MaxSpoolBytes = 1 << 40
	})
	defer svc.Close()
	if _, err := svc.Hello(serve.StreamMeta{Name: "bench", Evals: true, Quick: true}); err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Accept("bench", uint32(i), payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := svc.Counts().Check(); err != nil {
		b.Fatal(err)
	}
}
