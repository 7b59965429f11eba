package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/packet"
)

// FuzzReadTrace drives the IDT2 decoder — NewReader and Next, the path
// every consumer reads through — over arbitrary input. It may not
// panic, hang, or allocate unboundedly; malformed input must surface as
// an error. An input that reads to a clean io.EOF matched its footer,
// and must re-encode and decode to the same record count (a cheap
// internal-consistency invariant that needs no reference decoder).
func FuzzReadTrace(f *testing.F) {
	// Seed corpus: a real v2 stream (two chunk sizes), an empty v2
	// stream, a stream behind the retired v1 magic, assorted
	// truncations, and plain garbage.
	tr := fuzzSeedTrace()
	var v2 bytes.Buffer
	if err := tr.WriteStream(&v2); err != nil {
		f.Fatal(err)
	}
	retired := append([]byte("IDTR"), v2.Bytes()[4:]...)
	var v2small bytes.Buffer
	sw, err := NewWriter(&v2small, tr.Profile, tr.Seed)
	if err != nil {
		f.Fatal(err)
	}
	sw.SetChunkRecords(3)
	for _, r := range tr.Records {
		if err := sw.Append(r.At, r.Pk); err != nil {
			f.Fatal(err)
		}
	}
	sw.SetIncidents(tr.Incidents)
	if err := sw.Close(); err != nil {
		f.Fatal(err)
	}
	var v2empty bytes.Buffer
	ew, _ := NewWriter(&v2empty, "", 0)
	if err := ew.Close(); err != nil {
		f.Fatal(err)
	}

	f.Add(retired)
	f.Add(v2.Bytes())
	f.Add(v2small.Bytes())
	f.Add(v2empty.Bytes())
	for _, n := range []int{0, 4, 10, 17, 40} {
		f.Add(retired[:n])
		if n < v2.Len() {
			f.Add(v2.Bytes()[:n])
		}
	}
	f.Add(v2.Bytes()[:v2.Len()-trailerLen]) // no trailer: rejected at open
	f.Add([]byte("IDT2 but not really a trace"))
	f.Add([]byte("IDTR nor this"))
	f.Add([]byte{0xff, 0xfe, 0xfd})

	// Mutated seeds: single-byte corruptions of valid streams at
	// positions landing in the header, chunk bodies, the footer index,
	// and the trailer. Each must fail (or decode) without panicking or
	// allocating per the corrupt value.
	flip := func(b []byte, pos int) []byte {
		m := append([]byte(nil), b...)
		m[pos%len(m)] ^= 0xff
		return m
	}
	for _, pos := range []int{5, headerFixedLen + 3, v2.Len() / 3, v2.Len() / 2,
		v2.Len() - trailerLen - 9, v2.Len() - 3} {
		f.Add(flip(v2.Bytes(), pos))
		f.Add(flip(v2small.Bytes(), pos))
	}
	// Zero the first chunk's record-count varint (implausible-count path)
	// and max it out (count-vs-region plausibility path).
	firstChunkPayload := headerFixedLen + len(tr.Profile) + 5
	zeroed := append([]byte(nil), v2small.Bytes()...)
	zeroed[firstChunkPayload] = 0
	f.Add(zeroed)
	maxed := append([]byte(nil), v2small.Bytes()...)
	maxed[firstChunkPayload] = 0xff
	f.Add(maxed)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := readTrace(data)
		// The magic is checked once the 10 fixed header bytes are in.
		if len(data) >= 10 && bytes.HasPrefix(data, []byte("IDTR")) && !errors.Is(err, errRetiredV1) {
			t.Fatalf("retired v1 input: got %v, want the retired-format error", err)
		}
		if err == nil {
			checkReencode(t, tr)
		}
	})
}

// FuzzServeFrameDecode drives the network frame decoder — the byte
// stream idsevald trusts least — over arbitrary input. The decoder may
// never panic, hang, or allocate past its growth-step bound; every
// failure must be a *FrameDecodeError carrying a sane position, and
// frames that do decode must survive a write/read round trip.
func FuzzServeFrameDecode(f *testing.F) {
	enc := func(typ byte, ord uint32, payload []byte) []byte {
		var buf bytes.Buffer
		if err := NewFrameWriter(&buf).Write(typ, ord, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	hello := enc(FrameHello, 0, []byte(`{"name":"s1","seed":7}`))
	data := enc(FrameData, 1, bytes.Repeat([]byte{0x42}, 300))
	finish := enc(FrameFinish, 2, []byte(`{"chunks":2,"bytes":300}`))
	dialogue := append(append(append([]byte{}, hello...), data...), finish...)

	f.Add(dialogue)
	f.Add(hello)
	f.Add(enc(FrameData, 0, nil)) // empty payload
	for _, n := range []int{0, 3, 4, 5, 9, 12, 13, len(hello) - 1} {
		if n < len(hello) {
			f.Add(hello[:n])
		}
	}
	f.Add(dialogue[:len(hello)+7]) // torn mid-second-frame
	flip := func(b []byte, pos int) []byte {
		m := append([]byte(nil), b...)
		m[pos%len(m)] ^= 0xff
		return m
	}
	for _, pos := range []int{0, 4, 6, 10, 15, len(hello) - 2} {
		f.Add(flip(dialogue, pos))
	}
	// Length field lies: claims far more than follows.
	lying := append([]byte(nil), data...)
	lying[9], lying[10] = 0x03, 0xff
	f.Add(lying)
	f.Add([]byte("ISF2"))
	f.Add([]byte{0xff, 0xfe, 0xfd, 0xfc, 0xfb})

	f.Fuzz(func(t *testing.T, in []byte) {
		fr := NewFrameReader(bytes.NewReader(in), 1<<20)
		for {
			frm, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				var de *FrameDecodeError
				if !errors.As(err, &de) {
					t.Fatalf("decode error is not a FrameDecodeError: %v", err)
				}
				if de.Offset < 0 || de.Offset > int64(len(in)) {
					t.Fatalf("decode error offset %d outside input of %d bytes", de.Offset, len(in))
				}
				break
			}
			if cap(fr.buf) > len(frm.Payload)+2*frameReadStep {
				t.Fatalf("buffer cap %d far exceeds payload %d", cap(fr.buf), len(frm.Payload))
			}
			// Round trip: what decoded must re-encode to re-decodable bytes.
			var buf bytes.Buffer
			if err := NewFrameWriter(&buf).Write(frm.Type, frm.Ordinal, frm.Payload); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			back, err := NewFrameReader(bytes.NewReader(buf.Bytes()), 0).Next()
			if err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if back.Type != frm.Type || back.Ordinal != frm.Ordinal || !bytes.Equal(back.Payload, frm.Payload) {
				t.Fatal("frame round trip changed contents")
			}
		}
	})
}

// checkReencode round-trips a successfully decoded trace through the v2
// encoder and requires the result to decode to the same shape.
func checkReencode(t *testing.T, tr *memTrace) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteStream(&buf); err != nil {
		// Decoded traces can still be unencodable (e.g. a hostile
		// file whose timestamps overflow into negative durations); an
		// error is fine.
		return
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-decode of re-encoded trace failed: %v", err)
	}
	n := 0
	for {
		c, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("re-decode chunk: %v", err)
		}
		n += len(c.Records)
		c.Release()
	}
	if n != len(tr.Records) {
		t.Fatalf("re-encode changed record count: %d -> %d", len(tr.Records), n)
	}
}

// fuzzSeedTrace builds a small hand-rolled trace exercising the format's
// branches: payloads and empty payloads, truth labels with shared and
// distinct attack IDs, TCP and UDP, equal timestamps.
func fuzzSeedTrace() *memTrace {
	tr := &memTrace{Profile: "fuzz-seed", Seed: 3}
	at := []time.Duration{0, time.Millisecond, time.Millisecond, 5 * time.Millisecond,
		time.Second, time.Second + 1, 2 * time.Second, 3 * time.Second}
	for i, t := range at {
		p := &packet.Packet{
			Seq:     uint64(i + 1),
			Src:     packet.IPv4(10, 1, 1, byte(i%3+1)),
			Dst:     packet.IPv4(203, 0, 1, 1),
			SrcPort: uint16(40000 + i),
			DstPort: 443,
			Proto:   packet.ProtoTCP,
			Flags:   packet.ACK,
			TTL:     64,
			Sent:    t,
		}
		switch i % 4 {
		case 0:
			p.Payload = []byte("GET / HTTP/1.1\r\n")
		case 1:
			p.Proto = packet.ProtoUDP
			p.Flags = 0
		case 2:
			p.Truth = packet.Label{Malicious: true, AttackID: "scan-1", Technique: "portscan"}
		case 3:
			p.Truth = packet.Label{Malicious: true, AttackID: "exp-2", Technique: "exploit"}
			p.Payload = bytes.Repeat([]byte{0x90}, 64)
		}
		if err := tr.Append(t, p); err != nil {
			panic(err)
		}
	}
	tr.Incidents = []attack.Incident{
		{ID: "scan-1", Technique: "portscan", Start: time.Millisecond, Duration: time.Second, Packets: 2,
			Attacker: packet.IPv4(203, 0, 1, 1), Victim: packet.IPv4(10, 1, 1, 1)},
		{ID: "exp-2", Technique: "exploit", Start: time.Second, Duration: 2 * time.Second, Packets: 2,
			Attacker: packet.IPv4(203, 0, 1, 1), Victim: packet.IPv4(10, 1, 1, 2)},
	}
	return tr
}
