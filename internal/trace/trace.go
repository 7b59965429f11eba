// Package trace records and replays canned traffic. The paper's
// methodology depends on replayable data with known attack content
// (Section 4, Lesson 2): the observed false-negative ratio is unmeasurable
// against live traffic because an undetected attack is, by definition,
// invisible. A Trace pairs a packet timeline with a ground-truth incident
// sidecar; Replay feeds it back through any emit path at original or
// scaled pacing.
//
// Two encodings are provided: the chunked streaming binary format IDT2
// (stream.go) for benchmark traces, and JSON-lines for human inspection
// and interchange.
package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/attack"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// Record is one packet observation: the packet plus its timeline position.
type Record struct {
	At time.Duration
	Pk *packet.Packet
}

// Trace is an ordered packet timeline with attack ground truth.
type Trace struct {
	// Records are sorted by At (Append enforces monotonicity).
	Records []Record
	// Incidents is the ground-truth sidecar.
	Incidents []attack.Incident
	// Profile names the background workload the trace was generated from.
	Profile string
	// Seed reproduces the generation run.
	Seed int64
}

// Append adds a record, enforcing time order.
func (t *Trace) Append(at time.Duration, p *packet.Packet) error {
	if n := len(t.Records); n > 0 && at < t.Records[n-1].At {
		return fmt.Errorf("trace: record at %v violates time order (last %v)", at, t.Records[n-1].At)
	}
	t.Records = append(t.Records, Record{At: at, Pk: p})
	return nil
}

// Duration returns the trace's time span.
func (t *Trace) Duration() time.Duration {
	if len(t.Records) == 0 {
		return 0
	}
	return t.Records[len(t.Records)-1].At - t.Records[0].At
}

// Stats summarizes the trace for reports.
type Stats struct {
	Packets        int
	Bytes          int
	MaliciousPkts  int
	Incidents      int
	Duration       time.Duration
	AvgPps         float64
	DistinctAddrs  int
	PayloadPackets int
}

// Summarize computes Stats.
func (t *Trace) Summarize() Stats {
	var s Stats
	s.Packets = len(t.Records)
	s.Incidents = len(t.Incidents)
	s.Duration = t.Duration()
	addrs := make(map[packet.Addr]bool)
	for _, r := range t.Records {
		s.Bytes += r.Pk.WireLen()
		if r.Pk.Truth.Malicious {
			s.MaliciousPkts++
		}
		if len(r.Pk.Payload) > 0 {
			s.PayloadPackets++
		}
		addrs[r.Pk.Src] = true
		addrs[r.Pk.Dst] = true
	}
	s.DistinctAddrs = len(addrs)
	if s.Duration > 0 {
		s.AvgPps = float64(s.Packets) / s.Duration.Seconds()
	}
	return s
}

// Recorder captures packets into a Trace; plug its Emit into a generator
// or a netsim tap.
type Recorder struct {
	sim *simtime.Sim
	t   *Trace
}

// NewRecorder creates a recorder stamping records with sim's clock.
func NewRecorder(sim *simtime.Sim, profile string) *Recorder {
	return &Recorder{sim: sim, t: &Trace{Profile: profile, Seed: sim.Seed()}}
}

// Emit records one packet at the current virtual time.
func (r *Recorder) Emit(p *packet.Packet) {
	// Generators emit in nondecreasing virtual time, so Append cannot fail.
	if err := r.t.Append(r.sim.Now(), p); err != nil {
		panic(err)
	}
}

// SetIncidents attaches the ground-truth sidecar.
func (r *Recorder) SetIncidents(incs []attack.Incident) { r.t.Incidents = incs }

// Trace returns the captured trace.
func (r *Recorder) Trace() *Trace { return r.t }

// Replay schedules every record of t onto sim, offset so the first record
// fires at start, with inter-packet gaps scaled by 1/speedup (speedup 2
// replays twice as fast; 0 or 1 preserves original pacing). Each packet is
// delivered through emit.
func Replay(sim *simtime.Sim, t *Trace, start time.Duration, speedup float64, emit func(p *packet.Packet)) error {
	if emit == nil {
		return errors.New("trace: nil emit")
	}
	if speedup <= 0 {
		speedup = 1
	}
	if len(t.Records) == 0 {
		return nil
	}
	base := t.Records[0].At
	for _, rec := range t.Records {
		rec := rec
		at := start + time.Duration(float64(rec.At-base)/speedup)
		if _, err := sim.ScheduleAt(at, func() { emit(rec.Pk) }); err != nil {
			return err
		}
	}
	return nil
}

// ---- JSON-lines encoding ----

// jsonRecord is the JSONL wire form of one record.
type jsonRecord struct {
	AtNs      int64  `json:"at_ns"`
	SentNs    int64  `json:"sent_ns,omitempty"`
	Seq       uint64 `json:"seq"`
	Src       string `json:"src"`
	Dst       string `json:"dst"`
	SrcPort   uint16 `json:"sport"`
	DstPort   uint16 `json:"dport"`
	Proto     uint8  `json:"proto"`
	Flags     string `json:"flags,omitempty"`
	TTL       uint8  `json:"ttl"`
	Payload   []byte `json:"payload,omitempty"`
	Malicious bool   `json:"malicious,omitempty"`
	AttackID  string `json:"attack_id,omitempty"`
	Technique string `json:"technique,omitempty"`
}

// WriteJSONL writes one JSON object per record. Ground truth and the
// incident sidecar are included in a trailing meta object.
func (t *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range t.Records {
		p := r.Pk
		jr := jsonRecord{
			AtNs: int64(r.At), SentNs: int64(p.Sent), Seq: p.Seq,
			Src: p.Src.String(), Dst: p.Dst.String(),
			SrcPort: p.SrcPort, DstPort: p.DstPort,
			Proto: uint8(p.Proto), TTL: p.TTL, Payload: p.Payload,
			Malicious: p.Truth.Malicious, AttackID: p.Truth.AttackID,
			Technique: p.Truth.Technique,
		}
		if p.Proto == packet.ProtoTCP {
			jr.Flags = p.Flags.String()
		}
		if err := enc.Encode(jr); err != nil {
			return err
		}
	}
	meta := struct {
		Meta      string            `json:"meta"`
		Profile   string            `json:"profile"`
		Seed      int64             `json:"seed"`
		Incidents []attack.Incident `json:"incidents"`
	}{Meta: "trailer", Profile: t.Profile, Seed: t.Seed, Incidents: t.Incidents}
	if err := enc.Encode(meta); err != nil {
		return err
	}
	return bw.Flush()
}
