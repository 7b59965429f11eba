// IDT2: the streaming chunked binary trace encoding.
//
// IDT2 groups records into fixed-size chunks (~4096 records) so that
// trace I/O is O(chunk): each chunk carries varint-delta timestamps, a
// per-chunk string table for ground-truth labels, and one
// contiguous payload arena that decoded packets slice into — zero payload
// copies and a constant number of allocations per chunk instead of per
// packet. A footer indexes every chunk's file offset and time bounds and
// carries the ground-truth incident sidecar plus whole-trace summary
// statistics. The Reader loads the footer before the first chunk decodes,
// so a streaming consumer can size its testbed up front, and checks its
// claims against the decoded records at the end.
//
// See DESIGN.md §8 for the wire layout and the reader's concurrency
// contract.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/simtime"
)

const (
	magic2   = 0x49445432 // "IDT2"
	version2 = 2
	// trailerMagic closes the fixed-size trailer that locates the footer.
	trailerMagic = 0x32544449 // "2TDI"

	// DefaultChunkRecords is the writer's records-per-chunk target.
	DefaultChunkRecords = 4096

	blockChunk     = 1
	blockIncidents = 2
	blockFooter    = 3

	// Decode-side hardening caps: a corrupt or adversarial file must fail
	// with an error before it can demand a huge allocation.
	maxBlockLen     = 1 << 26 // 64 MiB per block
	maxChunkRecords = 1 << 17
	maxChunkStrings = 1 << 16
	maxIndexEntries = 1 << 24
	maxIncidents    = 1 << 20

	// minRecordEnc is the smallest possible wire encoding of one chunk
	// record: three 1-byte varints (delta, seq, sent), 16 fixed bytes,
	// and a 1-byte payload length.
	minRecordEnc = 20

	// minIncidentEnc is the smallest possible wire encoding of one
	// incident: two 1-byte string lengths, three 1-byte varints, and 8
	// fixed address bytes.
	minIncidentEnc = 13

	headerFixedLen = 4 + 4 + 2 + 8 // magic, version, profile len, seed (profile bytes vary)
	trailerLen     = 12            // footer offset u64 + trailer magic u32
)

// errRetiredV1 rejects a trace in the retired v1 ("IDTR") encoding,
// which no longer has a reader.
var errRetiredV1 = errors.New("trace: retired v1 (IDTR) trace format is no longer read; regenerate the trace with trafficgen")

// errNoFooter rejects a stream that does not end in a footer trailer.
var errNoFooter = errors.New("trace: stream has no footer (truncated, or its writer never closed it)")

// StreamStats are whole-trace summary statistics accumulated by the
// writers and recovered from the footer by the Reader before any chunk
// decodes. ClusterHosts/ExternalHosts size the testbed through the netsim
// address plan (netsim.PlanSizing) so a streaming consumer can build its
// topology without a pre-scan pass over the records.
type StreamStats struct {
	Packets        uint64
	Bytes          uint64
	MaliciousPkts  uint64
	PayloadPackets uint64
	FirstAt        time.Duration
	LastAt         time.Duration
	Chunks         int
	ClusterHosts   int
	ExternalHosts  int
}

// Duration returns the trace's time span.
func (s StreamStats) Duration() time.Duration {
	if s.Packets == 0 {
		return 0
	}
	return s.LastAt - s.FirstAt
}

// observe folds one record into the statistics, enforcing time order.
func (s *StreamStats) observe(at time.Duration, p *packet.Packet) error {
	if s.Packets > 0 && at < s.LastAt {
		return fmt.Errorf("record at %v violates time order (last %v)", at, s.LastAt)
	}
	if s.Packets == 0 {
		s.FirstAt = at
	}
	s.LastAt = at
	s.Packets++
	s.Bytes += uint64(p.WireLen())
	if p.Truth.Malicious {
		s.MaliciousPkts++
	}
	if len(p.Payload) > 0 {
		s.PayloadPackets++
	}
	for _, a := range [2]packet.Addr{p.Src, p.Dst} {
		c, e := netsim.PlanSizing(a)
		s.ClusterHosts = max(s.ClusterHosts, c)
		s.ExternalHosts = max(s.ExternalHosts, e)
	}
	return nil
}

// chunkInfo is one footer index entry: where a chunk lives in the file
// and which time range it covers.
type chunkInfo struct {
	Offset  uint64 // file offset of the chunk's block header
	Records int
	FirstAt time.Duration
	LastAt  time.Duration
}

// ---- Writer ----

// Writer encodes a trace incrementally in the IDT2 format. Records
// accumulate into chunks of ChunkRecords and each full chunk is encoded
// and flushed immediately, so writer memory is O(chunk) regardless of
// capture length. Close writes the final partial chunk, the incident
// sidecar, and the footer index; the stream of a Writer that is never
// Closed has no footer, and NewReader rejects it.
type Writer struct {
	bw  *bufio.Writer
	off uint64 // bytes committed to bw, = next block's file offset

	profile string
	seed    int64

	// ChunkRecords is the records-per-chunk target. It may be set before
	// the first Append; afterwards it is fixed.
	chunkRecords int

	pend      []Record // records of the open chunk (packets borrowed until flush)
	stats     StreamStats
	index     []chunkInfo
	incidents []attack.Incident

	strIdx map[string]uint64 // per-chunk string table (reset at flush)
	strs   []string
	enc    []byte // reusable chunk encode buffer
	closed bool
	err    error
}

// NewWriter starts an IDT2 stream on w, writing the header immediately.
func NewWriter(w io.Writer, profile string, seed int64) (*Writer, error) {
	if len(profile) > 0xFFFF {
		return nil, fmt.Errorf("trace: profile string too long (%d)", len(profile))
	}
	sw := &Writer{
		bw:           bufio.NewWriterSize(w, 256<<10),
		profile:      profile,
		seed:         seed,
		chunkRecords: DefaultChunkRecords,
		strIdx:       make(map[string]uint64),
	}
	hdr := make([]byte, 0, headerFixedLen+len(profile))
	hdr = binary.BigEndian.AppendUint32(hdr, magic2)
	hdr = binary.BigEndian.AppendUint32(hdr, version2)
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(len(profile)))
	hdr = append(hdr, profile...)
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(seed))
	if _, err := sw.bw.Write(hdr); err != nil {
		return nil, err
	}
	sw.off = uint64(len(hdr))
	return sw, nil
}

// SetChunkRecords overrides the records-per-chunk target. It must be
// called before the first Append; later calls are ignored.
func (w *Writer) SetChunkRecords(n int) {
	if n > 0 && n <= maxChunkRecords && w.stats.Packets == 0 && len(w.pend) == 0 {
		w.chunkRecords = n
	}
}

// SetIncidents attaches the ground-truth sidecar, written at Close.
func (w *Writer) SetIncidents(incs []attack.Incident) { w.incidents = incs }

// Stats returns the running whole-trace statistics.
func (w *Writer) Stats() StreamStats { return w.stats }

// Append adds one record, enforcing time order. The packet (and its
// payload) is borrowed until the chunk holding it flushes; callers must
// not mutate it before then.
func (w *Writer) Append(at time.Duration, p *packet.Packet) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("trace: append after Close")
	}
	if at < 0 || p.Sent < 0 {
		return fmt.Errorf("trace: negative time (at=%v sent=%v)", at, p.Sent)
	}
	if err := w.stats.observe(at, p); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w.pend = append(w.pend, Record{At: at, Pk: p})
	if len(w.pend) >= w.chunkRecords {
		w.err = w.flushChunk()
	}
	return w.err
}

// internString returns the open chunk's string-table index for s.
func (w *Writer) internString(s string) (uint64, error) {
	if i, ok := w.strIdx[s]; ok {
		return i, nil
	}
	if len(w.strs) >= maxChunkStrings {
		return 0, errors.New("trace: chunk string table overflow")
	}
	i := uint64(len(w.strs))
	w.strIdx[s] = i
	w.strs = append(w.strs, s)
	return i, nil
}

// flushChunk encodes and writes the open chunk.
func (w *Writer) flushChunk() error {
	if len(w.pend) == 0 {
		return nil
	}
	recs := w.pend
	// Build the string table and arena length in one pre-pass.
	w.strs = w.strs[:0]
	for k := range w.strIdx {
		delete(w.strIdx, k)
	}
	var arenaLen uint64
	for _, r := range recs {
		arenaLen += uint64(len(r.Pk.Payload))
		if r.Pk.Truth.Malicious {
			if _, err := w.internString(r.Pk.Truth.AttackID); err != nil {
				return err
			}
			if _, err := w.internString(r.Pk.Truth.Technique); err != nil {
				return err
			}
		}
	}

	buf := w.enc[:0]
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	base := recs[0].At
	buf = binary.AppendUvarint(buf, uint64(base))
	buf = binary.AppendUvarint(buf, arenaLen)
	buf = binary.AppendUvarint(buf, uint64(len(w.strs)))
	for _, s := range w.strs {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	prev := base
	for _, r := range recs {
		p := r.Pk
		buf = binary.AppendUvarint(buf, uint64(r.At-prev))
		prev = r.At
		buf = binary.AppendUvarint(buf, p.Seq)
		buf = binary.AppendUvarint(buf, uint64(p.Sent))
		buf = binary.BigEndian.AppendUint32(buf, uint32(p.Src))
		buf = binary.BigEndian.AppendUint32(buf, uint32(p.Dst))
		buf = binary.BigEndian.AppendUint16(buf, p.SrcPort)
		buf = binary.BigEndian.AppendUint16(buf, p.DstPort)
		buf = append(buf, byte(p.Proto), byte(p.Flags), p.TTL)
		if p.Truth.Malicious {
			buf = append(buf, 1)
			ai, _ := w.strIdx[p.Truth.AttackID]
			ti, _ := w.strIdx[p.Truth.Technique]
			buf = binary.AppendUvarint(buf, ai)
			buf = binary.AppendUvarint(buf, ti)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(p.Payload)))
	}
	for _, r := range recs {
		buf = append(buf, r.Pk.Payload...)
	}
	w.enc = buf
	if len(buf) > maxBlockLen {
		return fmt.Errorf("trace: chunk block %d exceeds %d bytes", len(buf), maxBlockLen)
	}

	w.index = append(w.index, chunkInfo{
		Offset:  w.off,
		Records: len(recs),
		FirstAt: recs[0].At,
		LastAt:  recs[len(recs)-1].At,
	})
	w.stats.Chunks++
	if err := w.writeBlock(blockChunk, buf); err != nil {
		return err
	}
	w.pend = w.pend[:0]
	return nil
}

// writeBlock frames one block and tracks the file offset.
func (w *Writer) writeBlock(typ byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	w.off += uint64(len(hdr)) + uint64(len(payload))
	return nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Close flushes the final partial chunk and writes the incident block,
// the footer index, and the locating trailer.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.flushChunk(); err != nil {
		w.err = err
		return err
	}

	// Incident sidecar block.
	incOff := w.off
	buf := w.enc[:0]
	buf = binary.AppendUvarint(buf, uint64(len(w.incidents)))
	for _, in := range w.incidents {
		buf = appendString(buf, in.ID)
		buf = appendString(buf, in.Technique)
		buf = binary.AppendUvarint(buf, uint64(in.Start))
		buf = binary.AppendUvarint(buf, uint64(in.Duration))
		buf = binary.AppendUvarint(buf, uint64(in.Packets))
		buf = binary.BigEndian.AppendUint32(buf, uint32(in.Attacker))
		buf = binary.BigEndian.AppendUint32(buf, uint32(in.Victim))
	}
	w.enc = buf
	if err := w.writeBlock(blockIncidents, buf); err != nil {
		w.err = err
		return err
	}

	// Footer: incidents offset, stats, chunk index.
	footOff := w.off
	buf = w.enc[:0]
	buf = binary.BigEndian.AppendUint64(buf, incOff)
	buf = binary.BigEndian.AppendUint64(buf, w.stats.Packets)
	buf = binary.BigEndian.AppendUint64(buf, w.stats.Bytes)
	buf = binary.BigEndian.AppendUint64(buf, w.stats.MaliciousPkts)
	buf = binary.BigEndian.AppendUint64(buf, w.stats.PayloadPackets)
	buf = binary.BigEndian.AppendUint64(buf, uint64(w.stats.FirstAt))
	buf = binary.BigEndian.AppendUint64(buf, uint64(w.stats.LastAt))
	buf = binary.BigEndian.AppendUint32(buf, uint32(w.stats.ClusterHosts))
	buf = binary.BigEndian.AppendUint32(buf, uint32(w.stats.ExternalHosts))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(w.index)))
	for _, ci := range w.index {
		buf = binary.BigEndian.AppendUint64(buf, ci.Offset)
		buf = binary.BigEndian.AppendUint32(buf, uint32(ci.Records))
		buf = binary.BigEndian.AppendUint64(buf, uint64(ci.FirstAt))
		buf = binary.BigEndian.AppendUint64(buf, uint64(ci.LastAt))
	}
	w.enc = buf
	if err := w.writeBlock(blockFooter, buf); err != nil {
		w.err = err
		return err
	}
	var trailer [trailerLen]byte
	binary.BigEndian.PutUint64(trailer[0:8], footOff)
	binary.BigEndian.PutUint32(trailer[8:12], trailerMagic)
	if _, err := w.bw.Write(trailer[:]); err != nil {
		w.err = err
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// ---- Reader ----

// Chunk is one decoded group of records. Records[i].Pk points into a
// chunk-owned packet slab and payloads alias the chunk's raw block
// buffer (zero-copy). Release returns the chunk's buffers to the
// reader's freelist; after Release, no packet of the chunk — including
// its payload bytes — may be touched again. A chunk that is never
// Released simply stays live until the GC collects it.
type Chunk struct {
	Records []Record
	pkts    []packet.Packet
	buf     []byte
	owner   *Reader
}

// FirstAt returns the chunk's first record time.
func (c *Chunk) FirstAt() time.Duration { return c.Records[0].At }

// LastAt returns the chunk's last record time.
func (c *Chunk) LastAt() time.Duration { return c.Records[len(c.Records)-1].At }

// Release recycles the chunk's buffers through the owning reader.
func (c *Chunk) Release() {
	if c.owner != nil {
		c.owner.putChunk(c)
	}
}

// Reader streams an IDT2 trace chunk by chunk with O(chunk) memory. It
// reads the footer first: NewReader fails on a stream without a valid
// footer, and Stats and Incidents are known before the first chunk
// decodes, so a consumer can size its testbed up front. When Next
// reaches the footer block it checks the footer's statistics against
// the records it decoded, so a clean io.EOF means the footer was true.
//
// Concurrency contract: Next must be called from a single goroutine
// (PipelinedReader moves it to a background worker); Release may be
// called from a different goroutine than Next.
type Reader struct {
	br *bufio.Reader
	rs io.ReadSeeker
	// end is the stream's length, and pos the offset of the next byte
	// Next consumes through br.
	end, pos int64

	profile string
	seed    int64

	stats     StreamStats // the footer's claims
	seen      StreamStats // what Next has decoded so far
	incidents []attack.Incident

	intern     map[string]string
	strScratch []string
	chunksRead atomic.Int64
	finished   bool
	scratch    []byte

	mu   sync.Mutex
	free []*Chunk

	// Telemetry instruments; nil (free no-ops) unless SetObs is called.
	cChunks, cRecords, cBytes *obs.Counter
	hDecode                   *obs.Histogram
}

// SetObs wires decoder telemetry under "trace.decoder.": chunk, record,
// and byte counters plus a wall-clock per-chunk decode-time histogram.
// Call before the first Next; a nil registry leaves the reader
// uninstrumented at zero cost.
func (r *Reader) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	r.cChunks = reg.Counter("trace.decoder.chunks")
	r.cRecords = reg.Counter("trace.decoder.records")
	r.cBytes = reg.Counter("trace.decoder.bytes")
	r.hDecode = reg.Histogram("trace.decoder.decode_wall_ns", obs.ClockWall)
}

// NewReader opens the IDT2 stream that fills rs from offset 0. It reads
// the header, then the footer and incident sidecar, and fails if any of
// them is missing or malformed.
func NewReader(rs io.ReadSeeker) (*Reader, error) {
	end, err := rs.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	rd := &Reader{rs: rs, end: end, intern: make(map[string]string)}
	rd.br = bufio.NewReaderSize(rs, 256<<10)
	if err := rd.readHeader(); err != nil {
		return nil, err
	}
	if err := rd.loadFooter(); err != nil {
		return nil, err
	}
	// Position after the header for the chunk reads.
	rd.pos = int64(headerFixedLen + len(rd.profile))
	if _, err := rs.Seek(rd.pos, io.SeekStart); err != nil {
		return nil, err
	}
	rd.br.Reset(rs)
	return rd, nil
}

func (r *Reader) readHeader() error {
	var hdr [10]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		return fmt.Errorf("trace: stream header: %w", err)
	}
	switch binary.BigEndian.Uint32(hdr[0:4]) {
	case magic2:
	case 0x49445452: // "IDTR"
		return errRetiredV1
	default:
		return errors.New("trace: bad stream magic")
	}
	if v := binary.BigEndian.Uint32(hdr[4:8]); v != version2 {
		return fmt.Errorf("trace: unsupported stream version %d", v)
	}
	plen := int(binary.BigEndian.Uint16(hdr[8:10]))
	pb := make([]byte, plen+8)
	if _, err := io.ReadFull(r.br, pb); err != nil {
		return fmt.Errorf("trace: stream header: %w", err)
	}
	r.profile = string(pb[:plen])
	r.seed = int64(binary.BigEndian.Uint64(pb[plen:]))
	return nil
}

// loadFooter reads the trailer, the footer and the incident sidecar.
func (r *Reader) loadFooter() error {
	trailerAt := r.end - trailerLen
	if trailerAt < int64(headerFixedLen+len(r.profile)) {
		return errNoFooter
	}
	if _, err := r.rs.Seek(trailerAt, io.SeekStart); err != nil {
		return err
	}
	var tr [trailerLen]byte
	if _, err := io.ReadFull(r.rs, tr[:]); err != nil {
		return err
	}
	if binary.BigEndian.Uint32(tr[8:12]) != trailerMagic {
		return errNoFooter
	}
	footOff := int64(binary.BigEndian.Uint64(tr[0:8]))
	if footOff < 0 || footOff >= trailerAt {
		return errors.New("trace: footer offset out of range")
	}
	typ, payload, err := r.readBlockAt(footOff)
	if err != nil {
		return err
	}
	if typ != blockFooter {
		return fmt.Errorf("trace: footer block has type %d", typ)
	}
	if len(payload) < 8+6*8+3*4 {
		return errors.New("trace: short footer")
	}
	incOff := int64(binary.BigEndian.Uint64(payload[0:8]))
	p := payload[8:]
	r.stats.Packets = binary.BigEndian.Uint64(p[0:8])
	r.stats.Bytes = binary.BigEndian.Uint64(p[8:16])
	r.stats.MaliciousPkts = binary.BigEndian.Uint64(p[16:24])
	r.stats.PayloadPackets = binary.BigEndian.Uint64(p[24:32])
	r.stats.FirstAt = time.Duration(binary.BigEndian.Uint64(p[32:40]))
	r.stats.LastAt = time.Duration(binary.BigEndian.Uint64(p[40:48]))
	r.stats.ClusterHosts = int(binary.BigEndian.Uint32(p[48:52]))
	r.stats.ExternalHosts = int(binary.BigEndian.Uint32(p[52:56]))
	if r.stats.ClusterHosts > netsim.PlanCapacity || r.stats.ExternalHosts > netsim.PlanCapacity {
		return fmt.Errorf("trace: footer claims %d cluster / %d external hosts, past the address plan's %d",
			r.stats.ClusterHosts, r.stats.ExternalHosts, netsim.PlanCapacity)
	}
	nchunks := binary.BigEndian.Uint32(p[56:60])
	if nchunks > maxIndexEntries {
		return fmt.Errorf("trace: implausible chunk count %d", nchunks)
	}
	// The index entries (offset u64, records u32, first/last u64) are
	// checked for length only: Next reads the chunks in order.
	if uint64(len(p)-60) != uint64(nchunks)*(8+4+8+8) {
		return errors.New("trace: footer index length mismatch")
	}
	r.stats.Chunks = int(nchunks)
	typ, payload, err = r.readBlockAt(incOff)
	if err != nil {
		return err
	}
	if typ != blockIncidents {
		return fmt.Errorf("trace: incident block has type %d", typ)
	}
	return r.parseIncidents(payload)
}

// readBlockAt seeks to off and reads one whole block into scratch.
func (r *Reader) readBlockAt(off int64) (byte, []byte, error) {
	if _, err := r.rs.Seek(off, io.SeekStart); err != nil {
		return 0, nil, err
	}
	var hdr [5]byte
	if _, err := io.ReadFull(r.rs, hdr[:]); err != nil {
		return 0, nil, err
	}
	blen, err := r.checkBlockLen(hdr, off+5)
	if err != nil {
		return 0, nil, err
	}
	if cap(r.scratch) < blen {
		r.scratch = make([]byte, blen)
	}
	buf := r.scratch[:blen]
	if _, err := io.ReadFull(r.rs, buf); err != nil {
		return 0, nil, err
	}
	return hdr[0], buf, nil
}

// checkBlockLen validates a block header's length claim against the
// hard cap and against the bytes the stream holds past at, so a corrupt
// length fails here instead of sizing an allocation.
func (r *Reader) checkBlockLen(hdr [5]byte, at int64) (int, error) {
	blen := binary.BigEndian.Uint32(hdr[1:5])
	if blen > maxBlockLen {
		return 0, fmt.Errorf("trace: block length %d exceeds limit", blen)
	}
	if rem := r.end - at; int64(blen) > rem {
		return 0, fmt.Errorf("trace: block length %d exceeds remaining %d bytes", blen, rem)
	}
	return int(blen), nil
}

// Profile returns the trace's generation profile name.
func (r *Reader) Profile() string { return r.profile }

// Seed returns the trace's generation seed.
func (r *Reader) Seed() int64 { return r.seed }

// Stats returns the whole-trace statistics the footer claims. Next
// verifies them when it reaches the footer block.
func (r *Reader) Stats() StreamStats { return r.stats }

// Incidents returns the ground-truth sidecar.
func (r *Reader) Incidents() []attack.Incident { return r.incidents }

// ChunksRead reports how many chunks have been decoded so far.
func (r *Reader) ChunksRead() int { return int(r.chunksRead.Load()) }

// Next returns the next decoded chunk, or io.EOF at end of trace. At
// the footer block it returns an error instead of io.EOF if the
// decoded records do not match the footer's statistics.
func (r *Reader) Next() (*Chunk, error) {
	if r.finished {
		return nil, io.EOF
	}
	for {
		var hdr [5]byte
		if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
			return nil, fmt.Errorf("trace: block header: %w", err)
		}
		blen, err := r.checkBlockLen(hdr, r.pos+5)
		if err != nil {
			return nil, err
		}
		r.pos += 5 + int64(blen)
		switch hdr[0] {
		case blockChunk:
			c := r.getChunk(blen)
			if _, err := io.ReadFull(r.br, c.buf); err != nil {
				return nil, fmt.Errorf("trace: chunk body: %w", err)
			}
			var t0 time.Time
			if r.hDecode != nil {
				t0 = time.Now()
			}
			if err := r.decodeChunk(c); err != nil {
				return nil, err
			}
			if r.hDecode != nil {
				r.hDecode.Observe(int64(time.Since(t0)))
			}
			r.seen.Chunks++
			r.chunksRead.Add(1)
			r.cChunks.Inc()
			r.cRecords.Add(uint64(len(c.Records)))
			r.cBytes.Add(uint64(blen) + 5)
			return c, nil
		case blockIncidents:
			// Loaded at open.
			if _, err := r.br.Discard(blen); err != nil {
				return nil, fmt.Errorf("trace: incident block: %w", err)
			}
		case blockFooter:
			// Terminal block, loaded at open: hold its claims against
			// the records the chunks actually carried.
			if _, err := r.br.Discard(blen); err != nil {
				return nil, fmt.Errorf("trace: footer block: %w", err)
			}
			if r.seen != r.stats {
				return nil, fmt.Errorf("trace: footer claims %+v, the stream holds %+v", r.stats, r.seen)
			}
			r.finished = true
			return nil, io.EOF
		default:
			return nil, fmt.Errorf("trace: unknown block type %d", hdr[0])
		}
	}
}

func (r *Reader) parseIncidents(payload []byte) error {
	p := payload
	n, p, err := readUvarint(p)
	if err != nil {
		return fmt.Errorf("trace: incident count: %w", err)
	}
	if n > maxIncidents {
		return fmt.Errorf("trace: implausible incident count %d", n)
	}
	if n*minIncidentEnc > uint64(len(p)) {
		return fmt.Errorf("trace: incident count %d exceeds block capacity (%d bytes)", n, len(p))
	}
	incs := make([]attack.Incident, 0, minU64(n, 4096))
	for i := uint64(0); i < n; i++ {
		var in attack.Incident
		if in.ID, p, err = readString(p); err != nil {
			return fmt.Errorf("trace: incident %d id: %w", i, err)
		}
		if in.Technique, p, err = readString(p); err != nil {
			return fmt.Errorf("trace: incident %d technique: %w", i, err)
		}
		var v uint64
		if v, p, err = readUvarint(p); err != nil {
			return err
		}
		in.Start = time.Duration(v)
		if v, p, err = readUvarint(p); err != nil {
			return err
		}
		in.Duration = time.Duration(v)
		if v, p, err = readUvarint(p); err != nil {
			return err
		}
		in.Packets = int(v)
		if len(p) < 8 {
			return errors.New("trace: truncated incident")
		}
		in.Attacker = packet.Addr(binary.BigEndian.Uint32(p[0:4]))
		in.Victim = packet.Addr(binary.BigEndian.Uint32(p[4:8]))
		p = p[8:]
		incs = append(incs, in)
	}
	r.incidents = incs
	return nil
}

// getChunk takes a chunk from the freelist (or allocates one) with a
// buffer of at least blen bytes.
func (r *Reader) getChunk(blen int) *Chunk {
	r.mu.Lock()
	var c *Chunk
	if n := len(r.free); n > 0 {
		c = r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
	}
	r.mu.Unlock()
	if c == nil {
		c = &Chunk{owner: r}
	}
	if cap(c.buf) < blen {
		c.buf = make([]byte, blen)
	}
	c.buf = c.buf[:blen]
	return c
}

// putChunk returns a chunk's buffers to the freelist (bounded).
func (r *Reader) putChunk(c *Chunk) {
	c.Records = c.Records[:0]
	c.pkts = c.pkts[:0]
	r.mu.Lock()
	if len(r.free) < 4 {
		r.free = append(r.free, c)
	}
	r.mu.Unlock()
}

// decodeChunk parses c.buf in place. Steady-state cost is zero
// allocations per chunk: the packet slab and record slice are recycled
// with the chunk, payloads alias the block buffer, and ground-truth
// strings intern through the reader's table. Decode failures carry the
// chunk's ordinal in the stream and the byte offset within the chunk
// where parsing stopped, so a corrupt capture points at itself.
func (r *Reader) decodeChunk(c *Chunk) error {
	rest, err := r.decodeChunkBody(c)
	if err != nil {
		return fmt.Errorf("trace: chunk %d: byte %d/%d: %w",
			r.chunksRead.Load(), len(c.buf)-len(rest), len(c.buf), err)
	}
	return nil
}

// decodeChunkBody does the parse. On failure it returns the unconsumed
// remainder alongside the error so decodeChunk can report how far it
// got; the remainder is meaningless on success.
func (r *Reader) decodeChunkBody(c *Chunk) ([]byte, error) {
	p := c.buf
	count, p, err := readUvarint(p)
	if err != nil {
		return p, fmt.Errorf("record count: %w", err)
	}
	if count == 0 || count > maxChunkRecords {
		return p, fmt.Errorf("implausible record count %d", count)
	}
	baseU, p, err := readUvarint(p)
	if err != nil {
		return p, fmt.Errorf("base timestamp: %w", err)
	}
	arenaLen, p, err := readUvarint(p)
	if err != nil {
		return p, fmt.Errorf("arena length: %w", err)
	}
	if arenaLen > uint64(len(p)) {
		return p, fmt.Errorf("arena length %d exceeds block", arenaLen)
	}
	nstr, p, err := readUvarint(p)
	if err != nil {
		return p, fmt.Errorf("string table size: %w", err)
	}
	if nstr > maxChunkStrings || nstr > uint64(len(p)) {
		return p, fmt.Errorf("implausible string table size %d", nstr)
	}
	// The string table decodes into a reader-owned scratch slice of
	// interned strings (no allocation for strings seen in prior chunks).
	strs := r.strScratch[:0]
	for i := uint64(0); i < nstr; i++ {
		var b []byte
		b, p, err = readBytes(p)
		if err != nil {
			return p, fmt.Errorf("string table entry %d: %w", i, err)
		}
		s, ok := r.intern[string(b)]
		if !ok {
			s = string(b)
			r.intern[s] = s
		}
		strs = append(strs, s)
	}
	r.strScratch = strs

	// Records region ends where the arena begins. Splitting before the
	// slab allocation lets the record count be checked against the bytes
	// actually present, so a hostile count fails before it can size an
	// allocation.
	if uint64(len(p)) < arenaLen {
		return p, errors.New("truncated chunk")
	}
	arena := p[uint64(len(p))-arenaLen:]
	p = p[:uint64(len(p))-arenaLen]
	if count*minRecordEnc > uint64(len(p)) {
		return p, fmt.Errorf("record count %d exceeds region capacity (%d bytes)", count, len(p))
	}

	n := int(count)
	if cap(c.pkts) < n {
		c.pkts = make([]packet.Packet, n)
	}
	c.pkts = c.pkts[:n]
	if cap(c.Records) < n {
		c.Records = make([]Record, n)
	}
	c.Records = c.Records[:n]

	at := time.Duration(baseU)
	var arenaOff uint64
	for i := 0; i < n; i++ {
		var v uint64
		if v, p, err = readUvarint(p); err != nil {
			return p, fmt.Errorf("record %d delta: %w", i, err)
		}
		if i > 0 {
			at += time.Duration(v)
		} else if v != 0 {
			return p, errors.New("nonzero first delta")
		}
		pk := &c.pkts[i]
		*pk = packet.Packet{}
		if pk.Seq, p, err = readUvarint(p); err != nil {
			return p, fmt.Errorf("record %d seq: %w", i, err)
		}
		if v, p, err = readUvarint(p); err != nil {
			return p, fmt.Errorf("record %d sent: %w", i, err)
		}
		pk.Sent = time.Duration(v)
		if len(p) < 16 {
			return p, fmt.Errorf("truncated record %d", i)
		}
		pk.Src = packet.Addr(binary.BigEndian.Uint32(p[0:4]))
		pk.Dst = packet.Addr(binary.BigEndian.Uint32(p[4:8]))
		pk.SrcPort = binary.BigEndian.Uint16(p[8:10])
		pk.DstPort = binary.BigEndian.Uint16(p[10:12])
		pk.Proto = packet.Proto(p[12])
		pk.Flags = packet.TCPFlags(p[13])
		pk.TTL = p[14]
		mal := p[15]
		p = p[16:]
		if mal == 1 {
			pk.Truth.Malicious = true
			if v, p, err = readUvarint(p); err != nil {
				return p, fmt.Errorf("record %d attack id: %w", i, err)
			}
			if v >= uint64(len(strs)) {
				return p, fmt.Errorf("record %d attack id index %d out of range", i, v)
			}
			pk.Truth.AttackID = strs[v]
			if v, p, err = readUvarint(p); err != nil {
				return p, fmt.Errorf("record %d technique: %w", i, err)
			}
			if v >= uint64(len(strs)) {
				return p, fmt.Errorf("record %d technique index %d out of range", i, v)
			}
			pk.Truth.Technique = strs[v]
		} else if mal != 0 {
			return p, fmt.Errorf("record %d bad malicious flag %d", i, mal)
		}
		var plen uint64
		if plen, p, err = readUvarint(p); err != nil {
			return p, fmt.Errorf("record %d payload length: %w", i, err)
		}
		if arenaOff+plen > arenaLen {
			return p, fmt.Errorf("record %d payload overruns arena (%d+%d > %d)", i, arenaOff, plen, arenaLen)
		}
		if plen > 0 {
			pk.Payload = arena[arenaOff : arenaOff+plen : arenaOff+plen]
			arenaOff += plen
		}
		if err := r.seen.observe(at, pk); err != nil {
			return p, err
		}
		c.Records[i] = Record{At: at, Pk: pk}
	}
	if arenaOff != arenaLen {
		return p, fmt.Errorf("arena underrun (%d of %d used)", arenaOff, arenaLen)
	}
	if len(p) != 0 {
		return p, fmt.Errorf("%d trailing bytes in chunk", len(p))
	}
	return nil, nil
}

// ---- decode helpers ----

func readUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, p, errors.New("bad uvarint")
	}
	return v, p[n:], nil
}

func readBytes(p []byte) ([]byte, []byte, error) {
	n, p, err := readUvarint(p)
	if err != nil {
		return nil, p, err
	}
	if n > uint64(len(p)) {
		return nil, p, errors.New("truncated bytes")
	}
	return p[:n], p[n:], nil
}

func readString(p []byte) (string, []byte, error) {
	b, p, err := readBytes(p)
	if err != nil {
		return "", p, err
	}
	return string(b), p, nil
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// ---- streaming recorder ----

// Appender is the sink a StreamRecorder feeds: the IDT2 *Writer or the
// *JSONLWriter.
type Appender interface {
	Append(at time.Duration, p *packet.Packet) error
}

// StreamRecorder captures packets straight into a streaming writer, so
// recording memory is O(chunk) instead of O(capture). Plug Emit into a
// generator or a netsim tap.
type StreamRecorder struct {
	sim *simtime.Sim
	w   Appender
	err error
}

// NewStreamRecorder creates a recorder stamping records with sim's clock.
func NewStreamRecorder(sim *simtime.Sim, w Appender) *StreamRecorder {
	return &StreamRecorder{sim: sim, w: w}
}

// Emit appends one packet at the current virtual time. The first append
// error is sticky and surfaced by Err.
func (r *StreamRecorder) Emit(p *packet.Packet) {
	if r.err != nil {
		return
	}
	r.err = r.w.Append(r.sim.Now(), p)
}

// Err returns the first append error, if any.
func (r *StreamRecorder) Err() error { return r.err }
