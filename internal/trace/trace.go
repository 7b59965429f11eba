// Package trace records and replays canned traffic. The paper's
// methodology depends on replayable data with known attack content
// (Section 4, Lesson 2): the observed false-negative ratio is unmeasurable
// against live traffic because an undetected attack is, by definition,
// invisible. A trace pairs a packet timeline with a ground-truth incident
// sidecar. StreamRecorder captures one from any emit path into a writer,
// and ReplayReader feeds it back through an emit path at its original
// pacing.
//
// Two encodings are written: the chunked streaming binary format IDT2
// (stream.go), which every consumer replays through Reader, and JSON
// lines (jsonl.go) for human inspection only; nothing reads JSONL back.
package trace

import (
	"time"

	"repro/internal/packet"
)

// Record is one packet observation: the packet plus its timeline position.
type Record struct {
	At time.Duration
	Pk *packet.Packet
}
