// Package trace records and replays canned traffic. The paper's
// methodology depends on replayable data with known attack content
// (Section 4, Lesson 2): the observed false-negative ratio is unmeasurable
// against live traffic because an undetected attack is, by definition,
// invisible. A Trace pairs a packet timeline with a ground-truth incident
// sidecar; Replay feeds it back through any emit path at original or
// scaled pacing.
//
// Two encodings are written: the chunked streaming binary format IDT2
// (stream.go), which every consumer replays through Reader, and JSON
// lines (jsonl.go) for human inspection only; nothing reads JSONL back.
package trace

import (
	"errors"
	"fmt"
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
