package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/attack"
	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/traffic"
)

// memTrace is the materialized reference the streaming paths are
// checked against: a packet timeline and its ground truth held in
// memory. It is an Appender, so a StreamRecorder captures into it.
type memTrace struct {
	// Records are sorted by At (Append enforces monotonicity).
	Records   []Record
	Incidents []attack.Incident
	Profile   string
	Seed      int64
}

// Append adds a record, enforcing time order.
func (t *memTrace) Append(at time.Duration, p *packet.Packet) error {
	if n := len(t.Records); n > 0 && at < t.Records[n-1].At {
		return fmt.Errorf("trace: record at %v violates time order (last %v)", at, t.Records[n-1].At)
	}
	t.Records = append(t.Records, Record{At: at, Pk: p})
	return nil
}

// Duration returns the trace's time span.
func (t *memTrace) Duration() time.Duration {
	if len(t.Records) == 0 {
		return 0
	}
	return t.Records[len(t.Records)-1].At - t.Records[0].At
}

// WriteStream encodes the whole trace through the IDT2 Writer.
func (t *memTrace) WriteStream(w io.Writer) error {
	sw, err := NewWriter(w, t.Profile, t.Seed)
	if err != nil {
		return err
	}
	for _, r := range t.Records {
		if err := sw.Append(r.At, r.Pk); err != nil {
			return err
		}
	}
	sw.SetIncidents(t.Incidents)
	return sw.Close()
}

// newMemRecorder captures into a memTrace stamped with sim's clock.
func newMemRecorder(sim *simtime.Sim, profile string) (*memTrace, *StreamRecorder) {
	tr := &memTrace{Profile: profile, Seed: sim.Seed()}
	return tr, NewStreamRecorder(sim, tr)
}

// flatReplay is the reference replay ReplayReader is checked against:
// every record is scheduled up front with sim.ScheduleAt, the first at
// start and the rest at their original offsets from it.
func flatReplay(sim *simtime.Sim, t *memTrace, start time.Duration, emit func(p *packet.Packet)) error {
	for _, rec := range t.Records {
		if _, err := sim.ScheduleAt(start+rec.At-t.Records[0].At, func() { emit(rec.Pk) }); err != nil {
			return err
		}
	}
	return nil
}

func sampleTrace(t *testing.T) *memTrace {
	t.Helper()
	sim := simtime.New(21)
	tr, rec := newMemRecorder(sim, "ecommerce-edge")
	seq := &packet.SeqCounter{}
	eps := traffic.Endpoints{
		External: []packet.Addr{packet.IPv4(203, 0, 1, 1)},
		Cluster:  []packet.Addr{packet.IPv4(10, 1, 1, 1), packet.IPv4(10, 1, 1, 2)},
	}
	gen, err := traffic.NewGenerator(sim, traffic.EcommerceEdge(), eps, seq, rec.Emit)
	if err != nil {
		t.Fatal(err)
	}
	gen.Start(40)
	ctx := &attack.Context{Sim: sim, Rng: sim.Stream("attack"), Seq: seq, Eps: eps, Emit: rec.Emit}
	camp := attack.NewCampaign(ctx)
	if err := camp.SpreadAcross(time.Second, 3*time.Second, []attack.Scenario{
		attack.PortScan{Ports: 30}, attack.Exploit{Count: 2},
	}); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(5 * time.Second)
	gen.Stop()
	sim.Run()
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	tr.Incidents = camp.Incidents()
	return tr
}

func TestRecorderCapturesMixedTraffic(t *testing.T) {
	tr := sampleTrace(t)
	malicious := 0
	for _, r := range tr.Records {
		if r.Pk.Truth.Malicious {
			malicious++
		}
	}
	if len(tr.Records) < 100 {
		t.Fatalf("only %d packets captured", len(tr.Records))
	}
	if malicious == 0 || malicious >= len(tr.Records) {
		t.Fatalf("malicious packets = %d of %d", malicious, len(tr.Records))
	}
	if len(tr.Incidents) != 2 {
		t.Fatalf("incidents = %d", len(tr.Incidents))
	}
	if tr.Duration() <= 0 {
		t.Fatalf("duration = %v", tr.Duration())
	}
}

// TestAppendEnforcesTimeOrder checks the Appender contract on every
// sink a StreamRecorder can feed: an earlier timestamp is rejected, an
// equal one is accepted.
func TestAppendEnforcesTimeOrder(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, "p", 1)
	if err != nil {
		t.Fatal(err)
	}
	sinks := map[string]Appender{
		"idt2":  sw,
		"jsonl": NewJSONLWriter(io.Discard, "p", 1),
		"mem":   &memTrace{},
	}
	for name, a := range sinks {
		p := &packet.Packet{}
		if err := a.Append(time.Second, p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := a.Append(500*time.Millisecond, p); err == nil {
			t.Fatalf("%s: out-of-order append accepted", name)
		}
		if err := a.Append(time.Second, p); err != nil {
			t.Fatalf("%s: equal-time append rejected: %v", name, err)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := tr.WriteStream(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := readTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	traceEqual(t, tr, got)
}

func TestNewReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(strings.NewReader("not a trace at all....")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := NewReader(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := tr.WriteStream(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// A truncated prefix, and a stream cut just before its trailer, have
	// no footer: both fail at open.
	for _, cut := range []int{len(data) / 2, len(data) - trailerLen} {
		if _, err := NewReader(bytes.NewReader(data[:cut])); err == nil ||
			!errors.Is(err, errNoFooter) {
			t.Fatalf("stream cut at %d of %d: got %v, want the missing-footer error", cut, len(data), err)
		}
	}
	// A retired v1 file fails with an error that says what to do.
	v1 := append([]byte("IDTR"), data[4:]...)
	if _, err := NewReader(bytes.NewReader(v1)); !errors.Is(err, errRetiredV1) ||
		!strings.Contains(err.Error(), "trafficgen") {
		t.Fatalf("v1 input: got %v, want the retired-format error", err)
	}
}

// writeJSONL encodes tr through the streaming JSONL writer.
func writeJSONL(t testing.TB, tr *memTrace) (*bytes.Buffer, StreamStats) {
	t.Helper()
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf, tr.Profile, tr.Seed)
	for _, r := range tr.Records {
		if err := w.Append(r.At, r.Pk); err != nil {
			t.Fatal(err)
		}
	}
	w.SetIncidents(tr.Incidents)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf, w.Stats()
}

func TestJSONLIncludesTruthAndTrailer(t *testing.T) {
	tr := sampleTrace(t)
	buf, _ := writeJSONL(t, tr)
	out := buf.String()
	lines := strings.Count(out, "\n")
	if lines != len(tr.Records)+1 {
		t.Fatalf("%d lines, want %d records + 1 trailer", lines, len(tr.Records))
	}
	if !strings.Contains(out, `"technique":"portscan"`) {
		t.Fatal("no ground truth in JSONL")
	}
	if !strings.Contains(out, `"meta":"trailer"`) || !strings.Contains(out, `"incidents":[`) {
		t.Fatal("no trailer metadata")
	}
}

func TestReplayPreservesOrderAndPacing(t *testing.T) {
	tr := sampleTrace(t)
	rd, err := NewReader(bytes.NewReader(encodeStream(t, tr, 50)))
	if err != nil {
		t.Fatal(err)
	}
	sim := simtime.New(1)
	var times []time.Duration
	var seqs []uint64
	rs, err := ReplayReader(sim, rd, time.Second, func(p *packet.Packet) {
		times = append(times, sim.Now())
		seqs = append(seqs, p.Seq)
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	if len(times) != len(tr.Records) {
		t.Fatalf("replayed %d of %d packets", len(times), len(tr.Records))
	}
	if times[0] != time.Second {
		t.Fatalf("first packet at %v, want 1s", times[0])
	}
	for i := range times {
		if seqs[i] != tr.Records[i].Pk.Seq {
			t.Fatalf("emit %d is seq %d, want %d: replay out of order", i, seqs[i], tr.Records[i].Pk.Seq)
		}
		if i == 0 {
			continue
		}
		wantGap := tr.Records[i].At - tr.Records[i-1].At
		if gotGap := times[i] - times[i-1]; gotGap != wantGap {
			t.Fatalf("gap %d: got %v want %v", i, gotGap, wantGap)
		}
	}
}

func TestReplayValidation(t *testing.T) {
	sim := simtime.New(1)
	rd, err := NewReader(bytes.NewReader(encodeStream(t, &memTrace{}, DefaultChunkRecords)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayReader(sim, rd, 0, nil); err == nil {
		t.Fatal("nil emit accepted")
	}
}

// Property: binary round-trip is identity for arbitrary single-packet
// traces.
func TestPropertyBinaryRoundTrip(t *testing.T) {
	f := func(src, dst uint32, sport, dport uint16, proto, flags, ttl uint8, payload []byte, mal bool) bool {
		p := &packet.Packet{
			Seq: 1, Src: packet.Addr(src), Dst: packet.Addr(dst),
			SrcPort: sport, DstPort: dport,
			Proto: packet.Proto(proto), Flags: packet.TCPFlags(flags), TTL: ttl,
			Payload: payload,
		}
		if mal {
			p.Truth = packet.Label{Malicious: true, AttackID: "a", Technique: "t"}
		}
		tr := &memTrace{Profile: "p", Seed: 9}
		if err := tr.Append(time.Second, p); err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := tr.WriteStream(&buf); err != nil {
			return false
		}
		got, err := readTrace(buf.Bytes())
		if err != nil || len(got.Records) != 1 {
			return false
		}
		q := got.Records[0].Pk
		return q.Src == p.Src && q.Dst == p.Dst && q.SrcPort == p.SrcPort &&
			q.DstPort == p.DstPort && q.Proto == p.Proto && q.Flags == p.Flags &&
			q.TTL == p.TTL && bytes.Equal(q.Payload, p.Payload) && q.Truth == p.Truth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func sampleTraceForBench(b testing.TB) *memTrace {
	b.Helper()
	sim := simtime.New(21)
	tr, rec := newMemRecorder(sim, "bench")
	eps := traffic.Endpoints{
		External: []packet.Addr{packet.IPv4(203, 0, 1, 1)},
		Cluster:  []packet.Addr{packet.IPv4(10, 1, 1, 1), packet.IPv4(10, 1, 1, 2)},
	}
	gen, err := traffic.NewGenerator(sim, traffic.EcommerceEdge(), eps, nil, rec.Emit)
	if err != nil {
		b.Fatal(err)
	}
	gen.Start(40)
	sim.RunUntil(3 * time.Second)
	gen.Stop()
	sim.Run()
	if err := rec.Err(); err != nil {
		b.Fatal(err)
	}
	return tr
}

func TestSummarizeEmptyTrace(t *testing.T) {
	// Both writers summarize an empty trace as all zeros, and the IDT2
	// footer carries that summary back.
	var empty memTrace
	_, jstats := writeJSONL(t, &empty)
	rd, err := NewReader(bytes.NewReader(encodeStream(t, &empty, DefaultChunkRecords)))
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]StreamStats{"jsonl": jstats, "idt2": rd.Stats()} {
		if s != (StreamStats{}) || s.Duration() != 0 {
			t.Fatalf("%s: empty summary = %+v", name, s)
		}
	}
}

func TestWriteStreamRejectsOversizeStrings(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, strings.Repeat("x", 70000), 0); err == nil {
		t.Fatal("oversized profile string accepted")
	}
}
