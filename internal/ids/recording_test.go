package ids

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/simtime"
	"repro/internal/trace"
)

func recordingIDS(t *testing.T, budget int) (*simtime.Sim, *IDS) {
	t.Helper()
	sim := simtime.New(1)
	s, err := New(sim, Config{
		Name: "rec", Engine: stubFactory,
		RecordSessions: true, RecordBudgetBytes: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim, s
}

func TestSessionRecordingCapturesAlertingFlow(t *testing.T) {
	sim, s := recordingIDS(t, 0)
	// First packet alerts (contains 'X'), arming the flow.
	s.Ingest(attackPkt(1))
	sim.Run()
	// Subsequent packets of the same flow are captured.
	follow := attackPkt(1)
	follow.Payload = []byte("follow-up data")
	s.Ingest(follow)
	reverse := attackPkt(1)
	reverse.Src, reverse.Dst = reverse.Dst, reverse.Src
	reverse.SrcPort, reverse.DstPort = reverse.DstPort, reverse.SrcPort
	reverse.Payload = []byte("response")
	s.Ingest(reverse)
	sim.Run()

	recs := s.Recordings()
	if len(recs) != 1 {
		t.Fatalf("%d recordings, want 1", len(recs))
	}
	// Both directions captured (canonical flow).
	if len(recs[0].Packets) != 2 {
		t.Fatalf("captured %d packets, want 2 (both directions post-alert)", len(recs[0].Packets))
	}
	// Playback by either direction's key.
	if s.Playback(follow.Key()) == nil || s.Playback(reverse.Key()) == nil {
		t.Fatal("playback lookup failed")
	}
}

func TestSessionRecordingIgnoresQuietFlows(t *testing.T) {
	sim, s := recordingIDS(t, 0)
	s.Ingest(benignPkt(1))
	sim.Run()
	s.Ingest(benignPkt(1))
	sim.Run()
	if got := len(s.Recordings()); got != 0 {
		t.Fatalf("%d recordings of non-alerting traffic", got)
	}
}

func TestSessionRecordingBudget(t *testing.T) {
	sim, s := recordingIDS(t, 200)
	s.Ingest(attackPkt(1))
	sim.Run()
	for i := 0; i < 20; i++ {
		p := attackPkt(1)
		p.Payload = make([]byte, 100)
		s.Ingest(p)
	}
	sim.Run()
	rec := s.Recordings()[0]
	if !rec.Truncated {
		t.Fatal("budget not enforced")
	}
	if rec.Bytes > 200 {
		t.Fatalf("recorded %d bytes over budget", rec.Bytes)
	}
}

func TestRecordingDisabledByDefault(t *testing.T) {
	sim := simtime.New(1)
	s, err := New(sim, Config{Name: "plain", Engine: stubFactory})
	if err != nil {
		t.Fatal(err)
	}
	s.Ingest(attackPkt(1))
	sim.Run()
	if s.Recordings() != nil || s.Playback(attackPkt(1).Key()) != nil {
		t.Fatal("recording active without RecordSessions")
	}
}

func TestTrendBucketsIncidents(t *testing.T) {
	sim := simtime.New(1)
	s, _ := New(sim, Config{Name: "trend", Engine: stubFactory, CorrelationWindow: time.Second})
	// Two attacks in bucket 0, one in bucket 2 (10s buckets), distinct
	// attackers so they are distinct incidents.
	sim.MustSchedule(1*time.Second, func() { s.Ingest(attackPkt(1)) })
	sim.MustSchedule(2*time.Second, func() { s.Ingest(attackPkt(2)) })
	sim.MustSchedule(25*time.Second, func() { s.Ingest(attackPkt(3)) })
	sim.Run()
	trend := s.Monitor().Trend(10 * time.Second)
	if len(trend) != 3 {
		t.Fatalf("%d buckets, want 3 (including the empty middle)", len(trend))
	}
	if trend[0].Counts["stub-attack"] != 2 {
		t.Fatalf("bucket 0 = %v", trend[0].Counts)
	}
	if len(trend[1].Counts) != 0 {
		t.Fatalf("bucket 1 should be empty: %v", trend[1].Counts)
	}
	if trend[2].Counts["stub-attack"] != 1 {
		t.Fatalf("bucket 2 = %v", trend[2].Counts)
	}
}

func TestTrendEdgeCases(t *testing.T) {
	sim := simtime.New(1)
	s, _ := New(sim, Config{Name: "trend", Engine: stubFactory})
	if got := s.Monitor().Trend(time.Second); got != nil {
		t.Fatal("trend of empty monitor should be nil")
	}
	s.Ingest(attackPkt(1))
	sim.Run()
	if got := s.Monitor().Trend(0); got != nil {
		t.Fatal("zero bucket should be nil")
	}
}

func TestSensorFailureSelfReported(t *testing.T) {
	sim := simtime.New(1)
	slow := func() detect.Engine { return &stubEngine{sens: 0.5, cost: 10 * time.Millisecond} }
	s, err := New(sim, Config{
		Name: "watch", Engine: slow, SensorQueue: 4,
		LethalDropsPerSec: 20, FailureMode: FailCrash, RestartAfter: 2 * time.Second,
		HasConsole: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		i := i
		sim.MustSchedule(time.Duration(i)*time.Millisecond, func() { s.Ingest(benignPkt(1)) })
	}
	sim.Run()
	events := s.SelfEvents()
	if len(events) < 2 {
		t.Fatalf("%d self events, want failure + recovery", len(events))
	}
	if events[0].Recovered || !events[1].Recovered {
		t.Fatalf("event order wrong: %+v", events)
	}
	// The failure was reported through the monitor (watchdog via console).
	found := false
	for _, inc := range s.Monitor().Incidents {
		if inc.Technique == "ids-sensor-failure" {
			found = true
		}
	}
	if !found {
		t.Fatal("sensor failure not reported to the monitor")
	}
}

func TestSensorFailureNotReportedWithoutConsole(t *testing.T) {
	sim := simtime.New(1)
	slow := func() detect.Engine { return &stubEngine{sens: 0.5, cost: 10 * time.Millisecond} }
	s, err := New(sim, Config{
		Name: "silent", Engine: slow, SensorQueue: 4,
		LethalDropsPerSec: 20, FailureMode: FailCrash,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		i := i
		sim.MustSchedule(time.Duration(i)*time.Millisecond, func() { s.Ingest(benignPkt(1)) })
	}
	sim.Run()
	if len(s.SelfEvents()) == 0 {
		t.Fatal("self events not recorded")
	}
	for _, inc := range s.Monitor().Incidents {
		if inc.Technique == "ids-sensor-failure" {
			t.Fatal("console-less IDS self-reported through the monitor")
		}
	}
}

func TestRecordingClonesPackets(t *testing.T) {
	sim, s := recordingIDS(t, 0)
	s.Ingest(attackPkt(1))
	sim.Run()
	p := attackPkt(1)
	p.Payload = []byte("original")
	s.Ingest(p)
	sim.Run()
	p.Payload[0] = 'X'
	rec := s.Recordings()[0]
	if string(rec.Packets[0].Payload) != "original" {
		t.Fatal("recording shares storage with live packet")
	}
}

func TestExportRecordingsWritesStreamTrace(t *testing.T) {
	sim, s := recordingIDS(t, 0)
	// Two alerting flows from distinct attackers, captured at distinct
	// virtual times so the export has a real timeline.
	sim.MustSchedule(time.Second, func() {
		s.Ingest(attackPkt(1))
	})
	sim.MustSchedule(2*time.Second, func() {
		p := attackPkt(1)
		p.Payload = []byte("follow-up")
		p.Sent = sim.Now()
		s.Ingest(p)
	})
	sim.MustSchedule(3*time.Second, func() {
		s.Ingest(attackPkt(2))
	})
	sim.Run()
	if len(s.Recordings()) != 2 {
		t.Fatalf("%d recordings, want 2", len(s.Recordings()))
	}

	var buf bytes.Buffer
	if err := s.ExportRecordings(&buf, "forensics"); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rd.Profile() != "forensics" {
		t.Fatalf("profile %q", rd.Profile())
	}
	var total int
	for _, rec := range s.Recordings() {
		total += len(rec.Packets)
	}
	if st := rd.Stats(); st.Packets != uint64(total) {
		t.Fatalf("exported %d packets, recordings hold %d", st.Packets, total)
	}
	var lastSent time.Duration
	for {
		c, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range c.Records {
			if r.Pk.Sent < lastSent {
				t.Fatal("export timeline out of order")
			}
			lastSent = r.Pk.Sent
		}
		c.Release()
	}
}

func TestExportRecordingsFileAtomic(t *testing.T) {
	sim, s := recordingIDS(t, 0)
	sim.MustSchedule(time.Second, func() { s.Ingest(attackPkt(1)) })
	sim.Run()
	if len(s.Recordings()) == 0 {
		t.Fatal("no recordings to export")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.idt2")
	if err := s.ExportRecordingsFile(path, "forensics"); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := trace.NewReader(f)
	if err != nil {
		t.Fatalf("exported file is not a readable trace: %v", err)
	}
	if rd.Profile() != "forensics" {
		t.Fatalf("profile %q", rd.Profile())
	}
	// No temp litter: the only entry in dir is the committed file.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "rec.idt2" {
		t.Fatalf("directory not clean after export: %v", ents)
	}
}
