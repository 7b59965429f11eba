package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/fsio"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/products"
	"repro/internal/serve"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// daemonWL runs idsevald's engine in process — serve.Open plus
// ServeTCP on loopback with the default Config — and streams distinct
// IDT2 traces to it from closed-loop client connections: upload,
// Finish, await the scorecard, next stream. It stresses the durable
// ingest path (frame codec, spool + fsync, ack journal) and trace
// replay through the sensors, and synthesises only training traffic.
type daemonWL struct {
	*env
	field  []products.Spec
	traces []string // trace files, generated once per process
	dir    string
	svc    *serve.Service
	ln     net.Listener
	served chan error
	// fs and reg instrument the traced pass; nil in timed passes.
	fs  fsio.FS
	reg *obs.Registry
	// per-stream client timings of the last pass, in stream order
	streams []streamTiming
}

// streamTiming is one stream's life as the client saw it.
type streamTiming struct {
	hello, upload, await, e2e time.Duration
	acks                      []time.Duration
	chunks                    int
	card                      []byte
}

const daemonSensitivity = 0.6

func (w *daemonWL) streamName(i int) string { return fmt.Sprintf("s%02d", i) }

func (w *daemonWL) setup(ctx context.Context) error {
	w.field = products.All()
	return instantiateField(w.seed, w.field)
}

// generateInputs writes the streams' inputs once per process: trace i
// is a labeled IDT2 trace generated from seed+i the way trafficgen
// generates one.
func (w *daemonWL) generateInputs() error {
	if w.traces != nil {
		return nil
	}
	start := time.Now()
	dir, err := w.env.dir("traces")
	if err != nil {
		return err
	}
	var total int64
	for i := 0; i < w.size.Streams; i++ {
		path := filepath.Join(dir, w.streamName(i)+".idt2")
		n, err := writeTrace(path, w.seed+int64(i), w.size.TraceSeconds, w.size.TracePps)
		if err != nil {
			return err
		}
		total += n
		w.traces = append(w.traces, path)
	}
	fmt.Fprintf(w.log, "e2ebench: generated %d traces, %d bytes, in %.2fs (in neither setup_s nor wall_s)\n",
		len(w.traces), total, time.Since(start).Seconds())
	return nil
}

// writeTrace generates one trace: ecommerce background over the
// default address plan, with the standard attack campaign spread across
// it. It returns the file's size.
func writeTrace(path string, seed int64, secs, pps float64) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	profile := traffic.EcommerceEdge()
	sim := simtime.New(seed)
	sw, err := trace.NewWriter(f, profile.Name, seed)
	if err != nil {
		return 0, err
	}
	rec := trace.NewStreamRecorder(sim, sw)
	seq := &packet.SeqCounter{}
	eps := endpoints()
	gen, err := traffic.NewGenerator(sim, profile, eps, seq, rec.Emit)
	if err != nil {
		return 0, err
	}
	if err := gen.Start(gen.SessionRateForPps(pps)); err != nil {
		return 0, err
	}
	dur := time.Duration(secs * float64(time.Second))
	camp := attack.NewCampaign(&attack.Context{Sim: sim, Rng: sim.Stream("attack"), Seq: seq, Emit: rec.Emit, Eps: eps, Gen: gen})
	if err := camp.SpreadAcross(dur/10, dur*8/10, attack.StandardScenarios(1)); err != nil {
		return 0, err
	}
	sim.RunUntil(dur)
	gen.Stop()
	sim.Run()
	if err := rec.Err(); err != nil {
		return 0, err
	}
	sw.SetIncidents(camp.Incidents())
	if err := sw.Close(); err != nil {
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// endpoints is trafficgen's default address plan: a 6-host cluster and
// 3 external hosts.
func endpoints() traffic.Endpoints {
	eps := traffic.Endpoints{}
	for i := 0; i < 6; i++ {
		eps.Cluster = append(eps.Cluster, packet.IPv4(10, 1, 1, byte(i+1)))
	}
	for i := 0; i < 3; i++ {
		eps.External = append(eps.External, packet.IPv4(203, 0, 1, byte(i+1)))
	}
	return eps
}

func (w *daemonWL) prepare(ctx context.Context) error {
	dir, err := w.env.dir("daemon")
	if err != nil {
		return err
	}
	w.dir = dir
	svc, err := serve.Open(serve.Config{Dir: dir, FS: w.fs, Obs: w.reg})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return err
	}
	w.svc, w.ln = svc, ln
	w.served = make(chan error, 1)
	go func() { w.served <- svc.ServeTCP(ln) }()
	return nil
}

func (w *daemonWL) discard() error {
	if w.svc == nil {
		return nil
	}
	w.ln.Close()
	err := <-w.served
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if derr := w.svc.Drain(ctx); derr != nil && err == nil {
		err = derr
	}
	w.svc, w.ln = nil, nil
	if rerr := os.RemoveAll(w.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

func (w *daemonWL) meta(i int) serve.StreamMeta {
	return serve.StreamMeta{Name: w.streamName(i), Seed: w.seed, Sensitivity: daemonSensitivity}
}

func (w *daemonWL) pass(ctx context.Context) (passOut, error) {
	n := w.size.Streams
	w.streams = make([]streamTiming, n)
	errs := make([]error, n)
	addr := w.ln.Addr().String()
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < daemonConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += daemonConns {
				errs[i] = w.stream(addr, i, &w.streams[i])
				if errs[i] != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	out := passOut{wall: time.Since(start)}

	var cards []string
	chunks := 0
	for i := range w.streams {
		chunks += w.streams[i].chunks
		if errs[i] != nil || w.streams[i].card == nil {
			out.failed++
		}
		cards = append(cards, string(w.streams[i].card))
	}
	out.attempted = n + chunks
	out.ops = float64(n - out.failed)
	if err := errors.Join(errs...); err != nil {
		out.failed = out.attempted
		return out, err
	}
	counts := w.svc.Counts()
	if err := counts.Check(); err != nil {
		out.failed = out.attempted
		return out, err
	}
	if counts.Delivered != counts.Submitted || counts.Submitted != uint64(chunks) ||
		counts.Rejected != 0 || counts.Duplicate != 0 || counts.Pending != 0 || counts.ShedTotal() != 0 {
		out.failed = out.attempted
		return out, fmt.Errorf("daemon ledger %+v: want all %d chunks delivered, none rejected, duplicated, pending or shed", counts, chunks)
	}
	out.digest = digest([]byte(strings.Join(cards, "\x00")))
	out.note = fmt.Sprintf("%d streams, %d chunks, scorecards sha256 %s", n, chunks, out.digest[:12])
	return out, nil
}

// stream uploads trace i on its own connection and waits for its
// scorecard, recording the client-side timings.
func (w *daemonWL) stream(addr string, i int, st *streamTiming) error {
	f, err := os.Open(w.traces[i])
	if err != nil {
		return err
	}
	defer f.Close()
	c, err := serve.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	t0 := time.Now()
	if err := c.Hello(w.meta(i)); err != nil {
		return fmt.Errorf("stream %d hello: %w", i, err)
	}
	st.hello = time.Since(t0)
	buf := make([]byte, w.size.ChunkBytes)
	var sent int64
	up := time.Now()
	for {
		k, rerr := io.ReadFull(f, buf)
		if k > 0 {
			t := time.Now()
			if err := c.SendChunk(buf[:k]); err != nil {
				return fmt.Errorf("stream %d chunk %d: %w", i, st.chunks, err)
			}
			st.acks = append(st.acks, time.Since(t))
			st.chunks++
			sent += int64(k)
		}
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			break
		}
		if rerr != nil {
			return rerr
		}
	}
	st.upload = time.Since(up)
	fin := time.Now()
	if err := c.Finish(uint64(st.chunks), sent); err != nil {
		return fmt.Errorf("stream %d finish: %w", i, err)
	}
	card, err := c.Await(10*time.Minute, nil)
	if err != nil {
		return fmt.Errorf("stream %d await: %w", i, err)
	}
	st.await = time.Since(fin)
	st.e2e = time.Since(t0)
	st.card = card
	return nil
}

func (w *daemonWL) finalCheck(ctx context.Context, d string) error { return nil }
