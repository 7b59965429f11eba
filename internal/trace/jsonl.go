// JSON-lines encoding: one JSON object per record, then a trailer
// object with the profile, seed and incident sidecar. JSONL exists for
// human inspection; nothing reads it back, and every consumer replays
// IDT2.
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
)

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

// jsonTrailer is the JSONL stream's closing meta object.
type jsonTrailer struct {
	Meta      string            `json:"meta"`
	Profile   string            `json:"profile"`
	Seed      int64             `json:"seed"`
	Incidents []attack.Incident `json:"incidents"`
}

// JSONLWriter encodes a trace incrementally as JSON lines, with the
// IDT2 Writer's shape: Append encodes each record as it arrives, so
// memory is O(1) in the capture length, and Close writes the trailer.
type JSONLWriter struct {
	bw        *bufio.Writer
	enc       *json.Encoder
	profile   string
	seed      int64
	stats     StreamStats
	incidents []attack.Incident
	closed    bool
	err       error
}

// NewJSONLWriter starts a JSON-lines stream on w.
func NewJSONLWriter(w io.Writer, profile string, seed int64) *JSONLWriter {
	bw := bufio.NewWriter(w)
	return &JSONLWriter{bw: bw, enc: json.NewEncoder(bw), profile: profile, seed: seed}
}

// SetIncidents attaches the ground-truth sidecar, written at Close.
func (w *JSONLWriter) SetIncidents(incs []attack.Incident) { w.incidents = incs }

// Stats returns the running whole-trace statistics (Chunks stays 0).
func (w *JSONLWriter) Stats() StreamStats { return w.stats }

// Append encodes one record, enforcing time order.
func (w *JSONLWriter) Append(at time.Duration, p *packet.Packet) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("trace: append after Close")
	}
	if err := w.stats.observe(at, p); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	jr := jsonRecord{
		AtNs: int64(at), SentNs: int64(p.Sent), Seq: p.Seq,
		Src: p.Src.String(), Dst: p.Dst.String(),
		SrcPort: p.SrcPort, DstPort: p.DstPort,
		Proto: uint8(p.Proto), TTL: p.TTL, Payload: p.Payload,
		Malicious: p.Truth.Malicious, AttackID: p.Truth.AttackID,
		Technique: p.Truth.Technique,
	}
	if p.Proto == packet.ProtoTCP {
		jr.Flags = p.Flags.String()
	}
	w.err = w.enc.Encode(jr)
	return w.err
}

// Close writes the trailer object and flushes.
func (w *JSONLWriter) Close() error {
	if w.err != nil || w.closed {
		return w.err
	}
	w.closed = true
	w.err = w.enc.Encode(jsonTrailer{Meta: "trailer", Profile: w.profile, Seed: w.seed, Incidents: w.incidents})
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	return w.err
}
