package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/traffic"
)

// traceEqual asserts two traces carry identical records, incidents, and
// metadata.
func traceEqual(t *testing.T, want, got *memTrace) {
	t.Helper()
	if got.Profile != want.Profile || got.Seed != want.Seed {
		t.Fatalf("meta mismatch: %q/%d vs %q/%d", got.Profile, got.Seed, want.Profile, want.Seed)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("records %d vs %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		a, b := want.Records[i], got.Records[i]
		if a.At != b.At {
			t.Fatalf("record %d time %v vs %v", i, a.At, b.At)
		}
		if a.Pk.Seq != b.Pk.Seq || a.Pk.Sent != b.Pk.Sent ||
			a.Pk.Src != b.Pk.Src || a.Pk.Dst != b.Pk.Dst ||
			a.Pk.SrcPort != b.Pk.SrcPort || a.Pk.DstPort != b.Pk.DstPort ||
			a.Pk.Proto != b.Pk.Proto || a.Pk.Flags != b.Pk.Flags || a.Pk.TTL != b.Pk.TTL {
			t.Fatalf("record %d header mismatch: %+v vs %+v", i, a.Pk, b.Pk)
		}
		if !bytes.Equal(a.Pk.Payload, b.Pk.Payload) {
			t.Fatalf("record %d payload mismatch", i)
		}
		if a.Pk.Truth != b.Pk.Truth {
			t.Fatalf("record %d truth %+v vs %+v", i, a.Pk.Truth, b.Pk.Truth)
		}
	}
	if len(got.Incidents) != len(want.Incidents) {
		t.Fatalf("incidents %d vs %d", len(got.Incidents), len(want.Incidents))
	}
	for i := range want.Incidents {
		if got.Incidents[i] != want.Incidents[i] {
			t.Fatalf("incident %d mismatch: %+v vs %+v", i, got.Incidents[i], want.Incidents[i])
		}
	}
}

func encodeStream(t testing.TB, tr *memTrace, chunkRecords int) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, tr.Profile, tr.Seed)
	if err != nil {
		t.Fatal(err)
	}
	sw.SetChunkRecords(chunkRecords)
	for _, r := range tr.Records {
		if err := sw.Append(r.At, r.Pk); err != nil {
			t.Fatal(err)
		}
	}
	sw.SetIncidents(tr.Incidents)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readTrace materializes an IDT2 stream through NewReader and Next, the
// production read path. Chunks are never released, so the records stay
// valid for the life of the returned memTrace.
func readTrace(data []byte) (*memTrace, error) {
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	tr := &memTrace{Profile: rd.Profile(), Seed: rd.Seed(), Incidents: rd.Incidents()}
	for {
		c, err := rd.Next()
		if err == io.EOF {
			return tr, nil
		}
		if err != nil {
			return nil, err
		}
		tr.Records = append(tr.Records, c.Records...)
	}
}

// footerStats returns the offset of the footer's statistics in an
// encoded stream: packets at +0, cluster hosts at +48 (u32).
func footerStats(data []byte) int {
	footOff := binary.BigEndian.Uint64(data[len(data)-trailerLen:])
	return int(footOff) + 5 + 8 // block header, incidents offset
}

func TestStreamReaderChunksAndStats(t *testing.T) {
	tr := sampleTrace(t)
	data := encodeStream(t, tr, 64)
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	st := rd.Stats()
	if st.Packets != uint64(len(tr.Records)) {
		t.Fatalf("stats packets %d, want %d", st.Packets, len(tr.Records))
	}
	var wireBytes, malicious uint64
	for _, r := range tr.Records {
		wireBytes += uint64(r.Pk.WireLen())
		if r.Pk.Truth.Malicious {
			malicious++
		}
	}
	if st.Bytes != wireBytes || st.MaliciousPkts != malicious {
		t.Fatalf("stats %+v, want %d bytes, %d malicious", st, wireBytes, malicious)
	}
	if st.Duration() != tr.Duration() {
		t.Fatalf("duration %v vs %v", st.Duration(), tr.Duration())
	}
	if st.ClusterHosts != 2 || st.ExternalHosts != 1 {
		t.Fatalf("sizing %d cluster / %d external, want 2 / 1", st.ClusterHosts, st.ExternalHosts)
	}
	wantChunks := (len(tr.Records) + 63) / 64
	if st.Chunks != wantChunks {
		t.Fatalf("chunks %d, want %d", st.Chunks, wantChunks)
	}
	if len(rd.Incidents()) != len(tr.Incidents) {
		t.Fatalf("incidents %d, want %d (up front)", len(rd.Incidents()), len(tr.Incidents))
	}
	if rd.Profile() != tr.Profile || rd.Seed() != tr.Seed {
		t.Fatal("header meta mismatch")
	}

	var got []Record
	chunks := 0
	for {
		c, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Records) == 0 || len(c.Records) > 64 {
			t.Fatalf("chunk %d has %d records", chunks, len(c.Records))
		}
		if c.FirstAt() != c.Records[0].At || c.LastAt() != c.Records[len(c.Records)-1].At {
			t.Fatal("chunk time bounds wrong")
		}
		// Deep-copy before release: released chunk memory is recycled.
		for _, r := range c.Records {
			pk := *r.Pk
			pk.Payload = append([]byte(nil), r.Pk.Payload...)
			got = append(got, Record{At: r.At, Pk: &pk})
		}
		chunks++
		c.Release()
	}
	if chunks != wantChunks {
		t.Fatalf("decoded %d chunks, want %d", chunks, wantChunks)
	}
	if rd.ChunksRead() != wantChunks {
		t.Fatalf("ChunksRead %d, want %d", rd.ChunksRead(), wantChunks)
	}
	traceEqual(t, tr, &memTrace{
		Records: got, Incidents: rd.Incidents(),
		Profile: rd.Profile(), Seed: rd.Seed(),
	})
}

func TestStreamSequentialScan(t *testing.T) {
	// Next walks the chunks in file order, steps over the incident
	// block, checks the footer, and then stays at io.EOF.
	tr := sampleTrace(t)
	rd, err := NewReader(bytes.NewReader(encodeStream(t, tr, 128)))
	if err != nil {
		t.Fatal(err)
	}
	var last time.Duration
	n := 0
	for {
		c, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if c.FirstAt() < last {
			t.Fatalf("chunk at %v after one ending %v", c.FirstAt(), last)
		}
		last = c.LastAt()
		n += len(c.Records)
		c.Release()
	}
	if n != len(tr.Records) || rd.ChunksRead() != rd.Stats().Chunks {
		t.Fatalf("scanned %d records in %d chunks, footer says %+v", n, rd.ChunksRead(), rd.Stats())
	}
	for i := 0; i < 2; i++ {
		if _, err := rd.Next(); err != io.EOF {
			t.Fatalf("Next after the footer: %v, want io.EOF", err)
		}
	}
}

// emitObservation is what a replay test records at emit time (payload
// summarized, since chunk memory may be recycled afterwards).
type emitObservation struct {
	at         time.Duration
	seq        uint64
	payloadLen int
	payloadSum uint32
}

func observeReplay(t *testing.T, schedule func(sim *simtime.Sim, emit func(p *packet.Packet))) []emitObservation {
	t.Helper()
	sim := simtime.New(7)
	var obs []emitObservation
	schedule(sim, func(p *packet.Packet) {
		var sum uint32
		for _, b := range p.Payload {
			sum = sum*31 + uint32(b)
		}
		obs = append(obs, emitObservation{at: sim.Now(), seq: p.Seq, payloadLen: len(p.Payload), payloadSum: sum})
	})
	sim.Run()
	return obs
}

func TestReplayReaderMatchesInMemoryReplay(t *testing.T) {
	tr := sampleTrace(t)
	data := encodeStream(t, tr, 50)
	want := observeReplay(t, func(sim *simtime.Sim, emit func(p *packet.Packet)) {
		if err := flatReplay(sim, tr, time.Second, emit); err != nil {
			t.Fatal(err)
		}
	})
	var rs *ReplayStream
	got := observeReplay(t, func(sim *simtime.Sim, emit func(p *packet.Packet)) {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		rs, err = ReplayReader(sim, rd, time.Second, emit)
		if err != nil {
			t.Fatal(err)
		}
	})
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d packets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("emit %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
	if rs.Chunks() == 0 {
		t.Fatal("no chunks counted")
	}
}

func TestPipelinedReaderMatchesDirect(t *testing.T) {
	tr := sampleTrace(t)
	data := encodeStream(t, tr, 40)
	want := observeReplay(t, func(sim *simtime.Sim, emit func(p *packet.Packet)) {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReplayReader(sim, rd, 0, emit); err != nil {
			t.Fatal(err)
		}
	})
	var pr *PipelinedReader
	got := observeReplay(t, func(sim *simtime.Sim, emit func(p *packet.Packet)) {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		pr = NewPipelinedReader(rd, 2)
		if _, err := ReplayReader(sim, pr, 0, emit); err != nil {
			t.Fatal(err)
		}
	})
	pr.Close()
	if len(got) != len(want) {
		t.Fatalf("pipelined replayed %d packets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("emit %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestStreamRecorderMatchesRecorder(t *testing.T) {
	// The same deterministic generation run captured into the in-memory
	// reference and through the IDT2 writer must produce identical
	// traces: streaming capture loses nothing.
	want := sampleTrace(t)
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, want.Profile, want.Seed)
	if err != nil {
		t.Fatal(err)
	}
	sw.SetChunkRecords(100)
	sim := simtime.New(21)
	srec := NewStreamRecorder(sim, sw)
	seq := &packet.SeqCounter{}
	eps := traffic.Endpoints{
		External: []packet.Addr{packet.IPv4(203, 0, 1, 1)},
		Cluster:  []packet.Addr{packet.IPv4(10, 1, 1, 1), packet.IPv4(10, 1, 1, 2)},
	}
	gen, err := traffic.NewGenerator(sim, traffic.EcommerceEdge(), eps, seq, srec.Emit)
	if err != nil {
		t.Fatal(err)
	}
	gen.Start(40)
	ctx := &attack.Context{Sim: sim, Rng: sim.Stream("attack"), Seq: seq, Eps: eps, Emit: srec.Emit}
	camp := attack.NewCampaign(ctx)
	if err := camp.SpreadAcross(time.Second, 3*time.Second, []attack.Scenario{
		attack.PortScan{Ports: 30}, attack.Exploit{Count: 2},
	}); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(5 * time.Second)
	gen.Stop()
	sim.Run()
	if err := srec.Err(); err != nil {
		t.Fatal(err)
	}
	sw.SetIncidents(camp.Incidents())
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := readTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	traceEqual(t, want, got)
}

func TestStreamRejectsCorrupt(t *testing.T) {
	tr := sampleTrace(t)
	data := encodeStream(t, tr, 64)

	// Truncations at every interesting boundary must error, not panic.
	for _, n := range []int{0, 3, 9, 20, len(data) / 2, len(data) - 5} {
		trunc := data[:n]
		rd, err := NewReader(bytes.NewReader(trunc))
		if err != nil {
			continue
		}
		for {
			c, err := rd.Next()
			if err != nil {
				break
			}
			c.Release()
		}
	}

	// Flipping the version is rejected.
	bad := append([]byte(nil), data...)
	bad[7] = 99
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Fatal("future stream version accepted")
	}

	// Corrupting a chunk's interior fails decode with an error.
	bad = append([]byte(nil), data...)
	// Find the first chunk block (right after the header) and scribble on
	// its length field to claim more than the block holds.
	hdrLen := headerFixedLen + len(tr.Profile)
	bad[hdrLen] = 77 // unknown block type
	rd, err := NewReader(bytes.NewReader(bad))
	if err == nil {
		_, err = rd.Next()
	}
	if err == nil {
		t.Fatal("unknown block type accepted")
	}
}

func TestWriterEnforcesTimeOrder(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, "p", 1)
	if err != nil {
		t.Fatal(err)
	}
	p := &packet.Packet{}
	if err := sw.Append(time.Second, p); err != nil {
		t.Fatal(err)
	}
	if err := sw.Append(500*time.Millisecond, p); err == nil {
		t.Fatal("out-of-order append accepted")
	}
}

func TestEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, "empty", 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st := rd.Stats(); st.Packets != 0 || st.Chunks != 0 {
		t.Fatalf("empty stream stats: %+v", st)
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("empty stream Next: %v, want EOF", err)
	}
	// Streaming replay of an empty source is a no-op.
	sim := simtime.New(1)
	rd2, _ := NewReader(bytes.NewReader(buf.Bytes()))
	rs, err := ReplayReader(sim, rd2, 0, func(p *packet.Packet) { t.Fatal("emit from empty trace") })
	if err != nil || rs.Err() != nil {
		t.Fatalf("empty replay: %v / %v", err, rs.Err())
	}
}

func TestJSONLBinaryStreamEquality(t *testing.T) {
	// The two encodings carry the same trace: the JSONL writer's lines
	// name the same records, in order, as the IDT2 stream decodes to,
	// its trailer carries the same metadata and incidents, and both
	// writers account the same statistics.
	tr := sampleTrace(t)
	jbuf, jstats := writeJSONL(t, tr)
	data := encodeStream(t, tr, DefaultChunkRecords)
	fromV2, err := readTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	traceEqual(t, tr, fromV2)

	lines := strings.Split(strings.TrimSuffix(jbuf.String(), "\n"), "\n")
	if len(lines) != len(fromV2.Records)+1 {
		t.Fatalf("%d JSONL lines, want %d records + trailer", len(lines), len(fromV2.Records))
	}
	for i, r := range fromV2.Records {
		var jr jsonRecord
		if err := json.Unmarshal([]byte(lines[i]), &jr); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		p := r.Pk
		flags := ""
		if p.Proto == packet.ProtoTCP {
			flags = p.Flags.String()
		}
		if jr.AtNs != int64(r.At) || jr.SentNs != int64(p.Sent) || jr.Seq != p.Seq ||
			jr.Src != p.Src.String() || jr.Dst != p.Dst.String() ||
			jr.SrcPort != p.SrcPort || jr.DstPort != p.DstPort || jr.Proto != uint8(p.Proto) ||
			jr.Flags != flags || jr.TTL != p.TTL || !bytes.Equal(jr.Payload, p.Payload) ||
			jr.Malicious != p.Truth.Malicious || jr.AttackID != p.Truth.AttackID ||
			jr.Technique != p.Truth.Technique {
			t.Fatalf("line %d %+v differs from IDT2 record %+v", i, jr, p)
		}
	}
	var trailer jsonTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatal(err)
	}
	if trailer.Meta != "trailer" || trailer.Profile != tr.Profile || trailer.Seed != tr.Seed ||
		!reflect.DeepEqual(trailer.Incidents, fromV2.Incidents) {
		t.Fatalf("trailer %+v does not match the IDT2 header and sidecar", trailer)
	}
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	v2stats := rd.Stats()
	v2stats.Chunks = 0 // JSONL has no chunks
	if jstats != v2stats {
		t.Fatalf("JSONL writer stats %+v, IDT2 footer %+v", jstats, v2stats)
	}
}

func TestFooterPlanSizingSkipsOffPlanAddresses(t *testing.T) {
	// 10.1.0.5 has a zero third octet, so it lies outside the address
	// plan and sizes nothing; 10.1.1.2 is cluster host 1.
	tr := &memTrace{Profile: "plan", Seed: 1}
	for i, a := range []packet.Addr{packet.IPv4(10, 1, 0, 5), packet.IPv4(10, 1, 1, 2)} {
		if err := tr.Append(time.Duration(i), &packet.Packet{Src: a, Dst: a}); err != nil {
			t.Fatal(err)
		}
	}
	rd, err := NewReader(bytes.NewReader(encodeStream(t, tr, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if st := rd.Stats(); st.ClusterHosts != 2 || st.ExternalHosts != 0 {
		t.Fatalf("sizing %d cluster / %d external, want 2 / 0", st.ClusterHosts, st.ExternalHosts)
	}
}

func TestFooterClaimsChecked(t *testing.T) {
	tr := sampleTrace(t)
	data := encodeStream(t, tr, 64)
	stats := footerStats(data)

	// A host claim past the plan's capacity fails at open.
	huge := append([]byte(nil), data...)
	binary.BigEndian.PutUint32(huge[stats+48:], 70000)
	if _, err := NewReader(bytes.NewReader(huge)); err == nil ||
		!strings.Contains(err.Error(), "past the address plan") {
		t.Fatalf("70000-host footer: got %v, want the capacity error", err)
	}

	// Claims within capacity that the records contradict open fine and
	// fail when Next reaches the footer: a host count, a packet count.
	for name, patch := range map[string]func(b []byte){
		"hosts":   func(b []byte) { binary.BigEndian.PutUint32(b[stats+48:], 60000) },
		"packets": func(b []byte) { binary.BigEndian.PutUint64(b[stats:], uint64(len(tr.Records)+1)) },
	} {
		lying := append([]byte(nil), data...)
		patch(lying)
		rd, err := NewReader(bytes.NewReader(lying))
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		for err == nil {
			_, err = rd.Next()
		}
		if err == io.EOF || !strings.Contains(err.Error(), "footer claims") {
			t.Fatalf("%s: got %v, want the footer-mismatch error", name, err)
		}
		if _, err := readTrace(lying); err == nil {
			t.Fatalf("%s: lying footer read cleanly", name)
		}
	}
}

func TestDecodeAllocsPerChunk(t *testing.T) {
	tr := sampleTraceForBench(t)
	const chunkRecords = 64
	data := encodeStream(t, tr, chunkRecords)
	chunks := (len(tr.Records) + chunkRecords - 1) / chunkRecords
	if chunks < 10 {
		t.Fatalf("trace too small for a meaningful per-chunk measurement (%d chunks)", chunks)
	}
	br := bytes.NewReader(data)
	allocs := testing.AllocsPerRun(20, func() {
		br.Reset(data)
		rd, err := NewReader(br)
		if err != nil {
			t.Fatal(err)
		}
		for {
			c, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			c.Release()
		}
	})
	perChunk := allocs / float64(chunks)
	t.Logf("decode: %.1f allocs/op over %d chunks = %.2f allocs/chunk", allocs, chunks, perChunk)
	if perChunk > 2 {
		t.Fatalf("%.2f allocs per chunk, want <= 2 (total %.0f over %d chunks)", perChunk, allocs, chunks)
	}
}

// ---- benchmarks ----

// longTraceForBench generates dur of background traffic — enough
// records that a small-chunk encoding spans dozens of chunks.
func longTraceForBench(b *testing.B, dur time.Duration) *memTrace {
	b.Helper()
	sim := simtime.New(21)
	tr, rec := newMemRecorder(sim, "bench-long")
	eps := traffic.Endpoints{
		External: []packet.Addr{packet.IPv4(203, 0, 1, 1)},
		Cluster:  []packet.Addr{packet.IPv4(10, 1, 1, 1), packet.IPv4(10, 1, 1, 2)},
	}
	gen, err := traffic.NewGenerator(sim, traffic.EcommerceEdge(), eps, nil, rec.Emit)
	if err != nil {
		b.Fatal(err)
	}
	gen.Start(40)
	sim.RunUntil(dur)
	gen.Stop()
	sim.Run()
	if err := rec.Err(); err != nil {
		b.Fatal(err)
	}
	return tr
}

func BenchmarkStreamEncode(b *testing.B) {
	tr := sampleTraceForBench(b)
	var buf bytes.Buffer
	if err := tr.WriteStream(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WriteStream(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamDecode(b *testing.B) {
	tr := sampleTraceForBench(b)
	var buf bytes.Buffer
	if err := tr.WriteStream(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		for {
			c, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			c.Release()
		}
	}
}

func BenchmarkStreamDecodePipelined(b *testing.B) {
	tr := sampleTraceForBench(b)
	var buf bytes.Buffer
	if err := tr.WriteStream(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		pr := NewPipelinedReader(rd, 2)
		for {
			c, err := pr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			c.Release()
		}
		pr.Close()
	}
}

// BenchmarkReplayLiveHeap contrasts the live-heap high-water mark (a
// peak-RSS proxy) of in-memory versus streaming replay. The custom
// live-MB metric is sampled at the replay midpoint after a forced GC,
// when the in-memory path necessarily holds every record and the
// streaming path only its release-lag window.
func BenchmarkReplayLiveHeap(b *testing.B) {
	// A long trace over small chunks, so it spans far more chunks than
	// the streaming window (pipeline depth + release lag + freelist):
	// the streaming path's live set is that window, not the whole
	// record array.
	tr := longTraceForBench(b, 30*time.Second)
	data := encodeStream(b, tr, 256)
	total := len(tr.Records)
	tr = nil // the decoded form must not be live during measurement

	measure := func(b *testing.B, run func(emit func(p *packet.Packet))) {
		var peak uint64
		for i := 0; i < b.N; i++ {
			seen := 0
			sampled := false
			run(func(p *packet.Packet) {
				seen++
				if !sampled && seen >= total/2 {
					sampled = true
					var ms runtime.MemStats
					runtime.GC()
					runtime.ReadMemStats(&ms)
					if ms.HeapAlloc > peak {
						peak = ms.HeapAlloc
					}
				}
			})
		}
		b.ReportMetric(float64(peak)/1e6, "live-MB")
	}

	b.Run("inmemory", func(b *testing.B) {
		measure(b, func(emit func(p *packet.Packet)) {
			sim := simtime.New(1)
			loaded, err := readTrace(data)
			if err != nil {
				b.Fatal(err)
			}
			if err := flatReplay(sim, loaded, 0, emit); err != nil {
				b.Fatal(err)
			}
			sim.Run()
		})
	})
	b.Run("stream", func(b *testing.B) {
		measure(b, func(emit func(p *packet.Packet)) {
			sim := simtime.New(1)
			rd, err := NewReader(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			pr := NewPipelinedReader(rd, 2)
			rs, err := ReplayReader(sim, pr, 0, emit)
			if err != nil {
				b.Fatal(err)
			}
			sim.Run()
			pr.Close()
			if err := rs.Err(); err != nil {
				b.Fatal(err)
			}
		})
	})
}
