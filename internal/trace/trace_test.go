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
	s := tr.Summarize()
	if s.Packets < 100 {
		t.Fatalf("only %d packets captured", s.Packets)
	}
	if s.MaliciousPkts == 0 || s.MaliciousPkts >= s.Packets {
		t.Fatalf("malicious packets = %d of %d", s.MaliciousPkts, s.Packets)
	}
	if s.Incidents != 2 {
		t.Fatalf("incidents = %d", s.Incidents)
	}
	if s.Duration <= 0 || s.AvgPps <= 0 {
		t.Fatalf("stats = %+v", s)
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
	// A seekable source: ReadBinary loads the footer index up front.
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := tr.WriteStream(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	traceEqual(t, tr, got)
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not a trace at all....")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadBinary(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated valid prefix.
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := tr.WriteStream(&buf); err != nil {
		t.Fatal(err)
	}
	half := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadBinary(bytes.NewReader(half)); err == nil {
		t.Fatal("truncated trace accepted")
	}
	// A retired v1 file fails with an error that says what to do.
	v1 := append([]byte("IDTR"), buf.Bytes()[4:]...)
	if _, err := ReadBinary(bytes.NewReader(v1)); !errors.Is(err, errRetiredV1) ||
		!strings.Contains(err.Error(), "trafficgen") {
		t.Fatalf("v1 input: got %v, want the retired-format error", err)
	}
}

func TestJSONLIncludesTruthAndTrailer(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
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
		got, err := ReadBinary(&buf)
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
	var tr Trace
	s := tr.Summarize()
	if s.Packets != 0 || s.Duration != 0 || s.AvgPps != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestWriteStreamRejectsOversizeStrings(t *testing.T) {
	tr := &Trace{Profile: strings.Repeat("x", 70000)}
	var buf bytes.Buffer
	if err := tr.WriteStream(&buf); err == nil {
		t.Fatal("oversized profile string accepted")
	}
}
