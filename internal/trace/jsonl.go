// JSON-lines decoding, inverting WriteJSONL. The JSONL form exists for
// human inspection and interchange; ReadJSONL makes it convertible to
// and from IDT2 (JSONL ↔ IDT2) so traces can be edited as text and
// replayed.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/attack"
	"repro/internal/packet"
)

// jsonLine is the union of a record line and the trailer object.
type jsonLine struct {
	jsonRecord
	Meta      string            `json:"meta"`
	Profile   string            `json:"profile"`
	Seed      int64             `json:"seed"`
	Incidents []attack.Incident `json:"incidents"`
}

// ReadJSONL parses a JSON-lines trace written by WriteJSONL.
func ReadJSONL(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(bufio.NewReaderSize(r, 256<<10))
	t := &Trace{}
	sawTrailer := false
	for lineNo := 1; ; lineNo++ {
		var jl jsonLine
		if err := dec.Decode(&jl); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("trace: jsonl line %d: %w", lineNo, err)
		}
		if sawTrailer {
			return nil, fmt.Errorf("trace: jsonl line %d: data after trailer", lineNo)
		}
		if jl.Meta != "" {
			if jl.Meta != "trailer" {
				return nil, fmt.Errorf("trace: jsonl line %d: unknown meta %q", lineNo, jl.Meta)
			}
			t.Profile = jl.Profile
			t.Seed = jl.Seed
			t.Incidents = jl.Incidents
			sawTrailer = true
			continue
		}
		p := &packet.Packet{
			Seq:     jl.Seq,
			Sent:    time.Duration(jl.SentNs),
			SrcPort: jl.SrcPort, DstPort: jl.DstPort,
			Proto: packet.Proto(jl.Proto), TTL: jl.TTL,
			Payload: jl.Payload,
			Truth: packet.Label{
				Malicious: jl.Malicious,
				AttackID:  jl.AttackID,
				Technique: jl.Technique,
			},
		}
		var err error
		if p.Src, err = packet.ParseAddr(jl.Src); err != nil {
			return nil, fmt.Errorf("trace: jsonl line %d: %w", lineNo, err)
		}
		if p.Dst, err = packet.ParseAddr(jl.Dst); err != nil {
			return nil, fmt.Errorf("trace: jsonl line %d: %w", lineNo, err)
		}
		if p.Flags, err = packet.ParseTCPFlags(jl.Flags); err != nil {
			return nil, fmt.Errorf("trace: jsonl line %d: %w", lineNo, err)
		}
		if err := t.Append(time.Duration(jl.AtNs), p); err != nil {
			return nil, fmt.Errorf("trace: jsonl line %d: %w", lineNo, err)
		}
	}
	if !sawTrailer {
		return nil, fmt.Errorf("trace: jsonl stream has no trailer")
	}
	return t, nil
}
