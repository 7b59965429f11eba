// Command smoke is the end-to-end smoke test of the shipped binaries.
// It runs three scenarios in sequence, the way an operator would, and
// exits 1 at the first failed check:
//
//   - campaign: plan a tiny campaign, stop it deterministically after
//     one committed experiment (-max 1 stands in for a Ctrl-C at an
//     arbitrary instant), resume, and require the resumed run to report
//     every experiment complete.
//   - live: run a campaign with -listen 127.0.0.1:0, find the bound
//     address from the stderr listening line, scrape /healthz, /metrics
//     and /progress while experiments are running, interrupt the run
//     with SIGINT, and require a graceful exit plus a clean resume to
//     completion.
//   - chaos: generate a labeled IDT2 trace, keep the scorecard of an
//     uninterrupted idsevald, then SIGKILL a second daemon mid-stream,
//     restart it on the same directory, and resume the upload from the
//     durable ack point. The resumed scorecard must be byte-identical to
//     the reference, and the daemon must drain on SIGTERM with exit 0
//     and print its ledger.
//
// Usage:
//
//	smoke -campaign bin/campaign -idsevald bin/idsevald \
//	      -trafficgen bin/trafficgen -dir /tmp/smoke
//
// The directory is removed and recreated. Pure Go — no curl or shell
// plumbing, so the smoke runs anywhere the toolchain does.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	campaignBin := flag.String("campaign", "", "campaign binary to drive (required)")
	idsevaldBin := flag.String("idsevald", "", "idsevald binary to drive (required)")
	trafficgenBin := flag.String("trafficgen", "", "trafficgen binary for the chaos input trace (required)")
	dir := flag.String("dir", "", "scratch directory (required; removed and recreated)")
	flag.Parse()
	if *campaignBin == "" || *idsevaldBin == "" || *trafficgenBin == "" || *dir == "" {
		fatal(fmt.Errorf("-campaign, -idsevald, -trafficgen, and -dir are required"))
	}
	if err := os.RemoveAll(*dir); err != nil {
		fatal(err)
	}
	campaignScenario(*campaignBin, filepath.Join(*dir, "campaign"))
	liveScenario(*campaignBin, filepath.Join(*dir, "live"))
	chaosScenario(*idsevaldBin, *trafficgenBin, filepath.Join(*dir, "chaos"))
	fmt.Println("smoke: ok — campaign, live and chaos scenarios passed")
}

// ---- campaign scenario ----

func campaignScenario(bin, dir string) {
	runStep(bin, "plan", "-dir", dir, "-quick", "-seed", "11",
		"-products", "NetRecorder", "-sweep-points", "2")
	// One worker: with more, the second experiment is already in flight
	// when the first commits, and may commit too before -max stops it.
	if out := runStep(bin, "run", "-dir", dir, "-workers", "1", "-max", "1"); !strings.Contains(out, "1/2 experiments committed") {
		fatal(fmt.Errorf("campaign run -max 1 did not stop after one experiment:\n%s", out))
	}
	if out := runStep(bin, "resume", "-dir", dir); !strings.Contains(out, "2/2 experiments complete") {
		fatal(fmt.Errorf("campaign resume did not complete:\n%s", out))
	}
	runStep(bin, "status", "-dir", dir)
	fmt.Println("smoke: campaign: ok — interrupted after 1/2, resumed to 2/2")
}

// ---- live scenario ----

// obsListenPrefix is the exact stderr line format httpexport emits;
// the bound address (needed because -listen uses port 0) follows it.
const obsListenPrefix = "observability: listening on http://"

func liveScenario(bin, dir string) {
	// Enough experiments that the single-worker run stays alive for a
	// couple of seconds — the window the mid-run scrapes and the SIGINT
	// need. The scrapes themselves take milliseconds.
	runStep(bin, "plan", "-dir", dir, "-quick", "-seed", "11",
		"-evals", "-sweep-points", "4")
	p := start(obsListenPrefix, bin, "run", "-dir", dir, "-workers", "1", "-listen", "127.0.0.1:0")
	fmt.Printf("smoke: live: campaign serving on %s\n", p.addr)
	scrape("http://" + p.addr)

	if err := p.cmd.Process.Signal(syscall.SIGINT); err != nil {
		fatal(fmt.Errorf("SIGINT: %w", err))
	}
	// Interrupted-and-incomplete exits 1 (with the resume banner); 0
	// means the run won the race and finished before the signal landed.
	// Anything else — or a timeout — is a shutdown bug.
	code := p.awaitExit(30 * time.Second)
	if code != 0 && code != 1 {
		fatal(fmt.Errorf("campaign run exited %d after SIGINT; stdout:\n%s", code, p.stdout.String()))
	}
	fmt.Printf("smoke: live: SIGINT honored, exit code %d\n", code)

	// The journal must have survived the interrupt: resume runs the
	// remainder and status reports every experiment committed.
	runStep(bin, "resume", "-dir", dir)
	if out := runStep(bin, "status", "-dir", dir); !strings.Contains(out, "20/20 experiments committed") {
		fatal(fmt.Errorf("campaign incomplete after resume:\n%s", out))
	}
	fmt.Println("smoke: live: ok — scraped live endpoints, graceful SIGINT, clean resume")
}

// scrape checks the three live endpoints mid-run.
func scrape(base string) {
	if body := get(base + "/healthz"); !strings.Contains(body, "ok") {
		fatal(fmt.Errorf("/healthz: unexpected body %q", body))
	}
	if body := get(base + "/metrics"); !strings.Contains(body, "campaign_") {
		fatal(fmt.Errorf("/metrics: no campaign_ family in:\n%s", body))
	}
	// The listener binds before Run loads the plan, and until then
	// /progress is the zero value, so poll until the plan is published.
	var body string
	var prog struct {
		Name    string `json:"name"`
		Planned int    `json:"planned"`
	}
	for deadline := time.Now().Add(30 * time.Second); prog.Name == "" && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		body = get(base + "/progress")
		if err := json.Unmarshal([]byte(body), &prog); err != nil {
			fatal(fmt.Errorf("/progress: not JSON: %v in %q", err, body))
		}
	}
	if prog.Planned != 20 {
		fatal(fmt.Errorf("/progress: planned %d, want 20 (%s)", prog.Planned, body))
	}
	fmt.Printf("smoke: live: /healthz, /metrics, /progress ok (campaign %q, %d planned)\n",
		prog.Name, prog.Planned)
}

// get fetches a URL with a short timeout and requires HTTP 200.
func get(url string) string {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		fatal(fmt.Errorf("GET %s: %w", url, err))
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(fmt.Errorf("GET %s: %w", url, err))
	}
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body))
	}
	return string(body)
}

// ---- chaos scenario ----

// daemonListenPrefix is the stderr line idsevald prints once its frame
// listener is bound; the address follows (needed because -tcp uses :0).
const daemonListenPrefix = "idsevald: tcp listening on "

// chunkSize splits the trace so a half-upload leaves a meaningful
// resume point (the generated trace is a few hundred KiB).
const chunkSize = 32 << 10

// meta's stream name is deliberately identical across the reference and
// chaos runs: the scorecard must depend only on the trace and the
// evaluation parameters, never on which directory or daemon produced it.
var meta = serve.StreamMeta{
	Name:        "chaos",
	Seed:        7,
	Quick:       true,
	Products:    []string{"TrueSecure", "StreamHunter"},
	Sensitivity: 0.6,
}

func chaosScenario(bin, gen, dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	tracePath := filepath.Join(dir, "input.idt2")
	runStep(gen, "-o", tracePath, "-seconds", "15", "-pps", "40", "-seed", "11")
	data, err := os.ReadFile(tracePath)
	if err != nil {
		fatal(err)
	}
	chunks := split(data, chunkSize)
	fmt.Printf("smoke: chaos: trace %d bytes in %d chunks\n", len(data), len(chunks))
	if len(chunks) < 4 {
		fatal(fmt.Errorf("trace too small for a meaningful mid-stream kill (%d chunks)", len(chunks)))
	}

	// Reference: one uninterrupted daemon lifetime.
	ref := startDaemon(bin, filepath.Join(dir, "ref"))
	refCard := finishUpload(hello(ref.addr), chunks, nil)
	ref.drain()
	fmt.Printf("smoke: chaos: reference scorecard %d bytes\n", len(refCard))

	// Chaos: half the chunks, then SIGKILL — the daemon gets no chance
	// to flush, drain, or say goodbye.
	chaosDir := filepath.Join(dir, "chaos")
	d := startDaemon(bin, chaosDir)
	half := len(chunks) / 2
	c := hello(d.addr)
	for i := 0; i < half; i++ {
		if err := c.SendChunkRetry(chunks[i], 5, 100*time.Millisecond); err != nil {
			fatal(fmt.Errorf("chunk %d: %w", i, err))
		}
	}
	c.Close()
	if err := d.cmd.Process.Kill(); err != nil {
		fatal(fmt.Errorf("SIGKILL: %w", err))
	}
	d.awaitExit(10 * time.Second)
	fmt.Printf("smoke: chaos: SIGKILL after %d/%d chunks\n", half, len(chunks))

	// Restart on the same directory: Hello must hand back a durable
	// resume point covering everything that was acked.
	d = startDaemon(bin, chaosDir)
	c = hello(d.addr)
	if c.State != serve.StateOpen {
		fatal(fmt.Errorf("resumed stream state %q, want %q", c.State, serve.StateOpen))
	}
	if int(c.Next) != half {
		fatal(fmt.Errorf("resume point %d, want %d — an acked chunk was lost or re-requested", c.Next, half))
	}
	fmt.Printf("smoke: chaos: restart resumes at chunk %d — acked work survived kill -9\n", c.Next)
	results := 0
	chaosCard := finishUpload(c, chunks, func(kind serve.EventKind, _ []byte) {
		if kind == serve.EventResult {
			results++
		}
	})
	fmt.Printf("smoke: chaos: resumed evaluation streamed %d incremental results\n", results)

	if !bytes.Equal(chaosCard, refCard) {
		fatal(fmt.Errorf("scorecard after kill -9 + resume differs from uninterrupted run:\n--- reference ---\n%s\n--- chaos ---\n%s",
			refCard, chaosCard))
	}
	fmt.Printf("smoke: chaos: final ledger %s\n", d.drain())
	fmt.Println("smoke: chaos: ok — scorecard byte-identical across SIGKILL, restart, and resume")
}

// hello dials the daemon and opens (or resumes) the meta stream.
func hello(addr string) *serve.Client {
	c, err := serve.Dial(addr)
	if err != nil {
		fatal(err)
	}
	if err := c.Hello(meta); err != nil {
		fatal(err)
	}
	return c
}

// finishUpload sends chunks from the stream's resume point on, finishes
// the stream, closes the client, and returns the scorecard.
func finishUpload(c *serve.Client, chunks [][]byte, onEvent func(serve.EventKind, []byte)) []byte {
	defer c.Close()
	var sent int64
	for i, chunk := range chunks {
		sent += int64(len(chunk))
		if i < int(c.Next) {
			continue // acked before the resume point; never re-sent
		}
		if err := c.SendChunkRetry(chunk, 5, 100*time.Millisecond); err != nil {
			fatal(fmt.Errorf("chunk %d: %w", i, err))
		}
	}
	if err := c.FinishRetry(uint64(len(chunks)), sent, 5, 100*time.Millisecond); err != nil {
		fatal(err)
	}
	card, err := c.Await(3*time.Minute, onEvent)
	if err != nil {
		fatal(err)
	}
	return card
}

func split(data []byte, size int) [][]byte {
	var chunks [][]byte
	for len(data) > 0 {
		n := min(size, len(data))
		chunks = append(chunks, data[:n])
		data = data[n:]
	}
	return chunks
}

// startDaemon launches idsevald on dir and waits for its frame listener.
func startDaemon(bin, dir string) *proc {
	return start(daemonListenPrefix, bin, "-dir", dir, "-tcp", "127.0.0.1:0", "-stall-timeout", "-1s")
}

// drain SIGTERMs the daemon, requires a clean exit, and returns the
// ledger audit line it printed on the way out.
func (p *proc) drain() string {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		fatal(fmt.Errorf("SIGTERM: %w", err))
	}
	if code := p.awaitExit(30 * time.Second); code != 0 {
		fatal(fmt.Errorf("idsevald exited %d after SIGTERM; stderr tail:\n%s", code, p.stderr.String()))
	}
	for _, line := range strings.Split(p.stderr.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "idsevald: ledger "); ok {
			return rest
		}
	}
	fatal(fmt.Errorf("no ledger line in drain output:\n%s", p.stderr.String()))
	return ""
}

// ---- process helpers shared by the scenarios ----

// running lists every child started, so fatal can stop them all.
var running []*exec.Cmd

// proc is one long-running child under test.
type proc struct {
	cmd    *exec.Cmd
	addr   string // from the stderr listening line
	stdout bytes.Buffer
	stderr *stderrSink
}

// start launches bin and waits until its stderr announces the bound
// address on a line beginning with listenPrefix. Stderr goes through a
// Writer sink rather than StderrPipe: exec.Wait flushes a Writer
// completely before returning, so lines printed on the way out (the
// ledger audit) are never raced away.
func start(listenPrefix, bin string, args ...string) *proc {
	p := &proc{cmd: exec.Command(bin, args...), stderr: newStderrSink(listenPrefix)}
	p.cmd.Stdout = &p.stdout
	p.cmd.Stderr = p.stderr
	if err := p.cmd.Start(); err != nil {
		fatal(err)
	}
	running = append(running, p.cmd)
	addr, err := p.stderr.awaitListenAddr(30 * time.Second)
	if err != nil {
		fatal(err)
	}
	p.addr = addr
	return p
}

// awaitExit waits for the process with a deadline and returns its exit
// code (-1 when a signal killed it).
func (p *proc) awaitExit(timeout time.Duration) int {
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		var ee *exec.ExitError
		switch {
		case err == nil:
			return 0
		case errors.As(err, &ee):
			return ee.ExitCode()
		}
		fatal(err)
	case <-time.After(timeout):
		fatal(fmt.Errorf("%s did not exit within %v", filepath.Base(p.cmd.Path), timeout))
	}
	return -1
}

// stderrSink accumulates a child's stderr and watches the byte stream
// for the listening line as it arrives.
type stderrSink struct {
	prefix  string
	mu      sync.Mutex
	buf     bytes.Buffer
	scanned int // buf prefix already scanned for the listen line
	found   chan string
	once    sync.Once
}

func newStderrSink(prefix string) *stderrSink {
	return &stderrSink{prefix: prefix, found: make(chan string, 1)}
}

// Write implements io.Writer for cmd.Stderr.
func (s *stderrSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf.Write(p)
	// Scan any newly completed lines for the listen address.
	data := s.buf.Bytes()
	for {
		nl := bytes.IndexByte(data[s.scanned:], '\n')
		if nl < 0 {
			break
		}
		line := string(data[s.scanned : s.scanned+nl])
		s.scanned += nl + 1
		if addr, ok := strings.CutPrefix(line, s.prefix); ok {
			s.once.Do(func() { s.found <- addr })
		}
	}
	return len(p), nil
}

func (s *stderrSink) awaitListenAddr(timeout time.Duration) (string, error) {
	select {
	case addr := <-s.found:
		return addr, nil
	case <-time.After(timeout):
		return "", fmt.Errorf("no %q line within %v; stderr so far:\n%s",
			s.prefix, timeout, s.String())
	}
}

func (s *stderrSink) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

// runStep runs bin to completion and returns its stdout; a non-zero
// exit is fatal and echoes both output streams.
func runStep(bin string, args ...string) string {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		fatal(fmt.Errorf("%s %s: %w\n%s%s", bin, strings.Join(args, " "), err, stdout.Bytes(), stderr.Bytes()))
	}
	return stdout.String()
}

// fatal reports err, kills every child still running, and exits 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smoke:", err)
	for _, cmd := range running {
		cmd.Process.Kill() // already-exited children report ErrProcessDone
	}
	os.Exit(1)
}
