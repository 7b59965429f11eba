package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/attack"
	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/traffic"
)

func sampleTrace(t *testing.T) *Trace {
	t.Helper()
	sim := simtime.New(21)
	rec := NewRecorder(sim, "ecommerce-edge")
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
	rec.SetIncidents(camp.Incidents())
	return rec.Trace()
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

func TestAppendEnforcesTimeOrder(t *testing.T) {
	var tr Trace
	p := &packet.Packet{}
	if err := tr.Append(time.Second, p); err != nil {
		t.Fatal(err)
	}
	if err := tr.Append(500*time.Millisecond, p); err == nil {
		t.Fatal("out-of-order append accepted")
	}
	if err := tr.Append(time.Second, p); err != nil {
		t.Fatalf("equal-time append rejected: %v", err)
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
func writeJSONL(t testing.TB, tr *Trace) (*bytes.Buffer, StreamStats) {
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
	sim := simtime.New(1)
	var times []time.Duration
	var pkts []*packet.Packet
	if err := Replay(sim, tr, time.Second, 1, func(p *packet.Packet) {
		times = append(times, sim.Now())
		pkts = append(pkts, p)
	}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if len(pkts) != len(tr.Records) {
		t.Fatalf("replayed %d of %d packets", len(pkts), len(tr.Records))
	}
	if times[0] != time.Second {
		t.Fatalf("first packet at %v, want 1s", times[0])
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatal("replay out of order")
		}
		wantGap := tr.Records[i].At - tr.Records[i-1].At
		if gotGap := times[i] - times[i-1]; gotGap != wantGap {
			t.Fatalf("gap %d: got %v want %v", i, gotGap, wantGap)
		}
	}
}

func TestReplaySpeedupCompressesTime(t *testing.T) {
	tr := sampleTrace(t)
	sim := simtime.New(1)
	var last time.Duration
	if err := Replay(sim, tr, 0, 4, func(p *packet.Packet) { last = sim.Now() }); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	want := time.Duration(float64(tr.Duration()) / 4)
	// Integer rounding of per-record offsets may shave nanoseconds.
	if diff := last - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("replay span %v, want ~%v", last, want)
	}
}

func TestReplayValidation(t *testing.T) {
	sim := simtime.New(1)
	if err := Replay(sim, &Trace{}, 0, 1, nil); err == nil {
		t.Fatal("nil emit accepted")
	}
	if err := Replay(sim, &Trace{}, 0, 1, func(p *packet.Packet) {}); err != nil {
		t.Fatalf("empty trace should be a no-op, got %v", err)
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
		tr := &Trace{Profile: "p", Seed: 9}
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

func sampleTraceForBench(b testing.TB) *Trace {
	b.Helper()
	sim := simtime.New(21)
	rec := NewRecorder(sim, "bench")
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
	return rec.Trace()
}

func TestSummarizeEmptyTrace(t *testing.T) {
	// Both writers summarize an empty trace as all zeros, and the IDT2
	// footer carries that summary back.
	var empty Trace
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
	tr := &Trace{Profile: strings.Repeat("x", 70000)}
	var buf bytes.Buffer
	if err := tr.WriteStream(&buf); err == nil {
		t.Fatal("oversized profile string accepted")
	}
}
