// IDT2: the streaming chunked binary trace encoding.
//
// IDT2 groups records into fixed-size chunks (~4096 records) so that
// trace I/O is O(chunk): each chunk carries varint-delta timestamps, a
// per-chunk string table for ground-truth labels, and one
// contiguous payload arena that decoded packets slice into — zero payload
// copies and a constant number of allocations per chunk instead of per
// packet. A footer indexes every chunk's file offset and time bounds,
// enabling time-range seek on any io.ReadSeeker, and carries the
// ground-truth incident sidecar plus whole-trace summary statistics so a
// streaming consumer can size its testbed before the first chunk decodes.
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

	// bigBlockLen gates the remaining-bytes cross-check: block-length
	// claims at or above it are verified against the source size (when
	// knowable) before the buffer is allocated. Below it, a hostile
	// length costs at most a small allocation and is caught by ReadFull.
	bigBlockLen = 1 << 20

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

// StreamStats are whole-trace summary statistics accumulated by the
// Writer and recovered from the footer by a seekable Reader before any
// chunk decodes. ClusterHosts/ExternalHosts mirror the testbed address
// scheme (10.1.x.x cluster, 203.0.x.x external) so a streaming consumer
// can size its topology without a pre-scan pass over the records.
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

// ChunkInfo is one footer index entry: where a chunk lives in the file
// and which time range it covers.
type ChunkInfo struct {
	Offset  uint64 // file offset of the chunk's block header
	Records int
	FirstAt time.Duration
	LastAt  time.Duration
}

// hostIndexes mirrors the testbed addressing scheme used by
// eval.RunTraceAccuracy so the footer can carry topology sizing.
func hostIndexes(a packet.Addr) (cluster, external int) {
	o1, o2, o3, o4 := a.Octets()
	idx := int(o3-1)*250 + int(o4-1)
	switch {
	case o1 == 10 && o2 == 1:
		return idx + 1, 0
	case o1 == 203 && o2 == 0:
		return 0, idx + 1
	}
	return 0, 0
}

// ---- Writer ----

// Writer encodes a trace incrementally in the IDT2 format. Records
// accumulate into chunks of ChunkRecords and each full chunk is encoded
// and flushed immediately, so writer memory is O(chunk) regardless of
// capture length. Close writes the final partial chunk, the incident
// sidecar, and the footer index; a Writer that is never Closed produces
// a truncated (sequentially readable, unindexed) stream.
type Writer struct {
	bw  *bufio.Writer
	off uint64 // bytes committed to bw, = next block's file offset

	profile string
	seed    int64

	// ChunkRecords is the records-per-chunk target. It may be set before
	// the first Append; afterwards it is fixed.
	chunkRecords int

	pend      []Record // records of the open chunk (packets borrowed until flush)
	lastAt    time.Duration
	stats     StreamStats
	index     []ChunkInfo
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
	if w.stats.Packets > 0 && at < w.lastAt {
		return fmt.Errorf("trace: record at %v violates time order (last %v)", at, w.lastAt)
	}
	if w.stats.Packets == 0 {
		w.stats.FirstAt = at
	}
	w.lastAt = at
	w.stats.LastAt = at
	w.stats.Packets++
	w.stats.Bytes += uint64(p.WireLen())
	if p.Truth.Malicious {
		w.stats.MaliciousPkts++
	}
	if len(p.Payload) > 0 {
		w.stats.PayloadPackets++
	}
	for _, a := range [2]packet.Addr{p.Src, p.Dst} {
		c, e := hostIndexes(a)
		if c > w.stats.ClusterHosts {
			w.stats.ClusterHosts = c
		}
		if e > w.stats.ExternalHosts {
			w.stats.ExternalHosts = e
		}
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

	w.index = append(w.index, ChunkInfo{
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

// WriteStream serializes the whole trace in the IDT2 format.
func (t *Trace) WriteStream(w io.Writer) error {
	sw, err := NewWriter(w, t.Profile, t.Seed)
	if err != nil {
		return err
	}
	for _, r := range t.Records {
		if err := sw.Append(r.At, r.Pk); err != nil {
			return err
		}
	}
	sw.SetIncidents(t.Incidents)
	return sw.Close()
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

// Reader streams an IDT2 trace chunk by chunk with O(chunk) memory. On
// an io.ReadSeeker it reads the footer first, making Stats, Incidents,
// and Index available before the first chunk decodes, and enabling
// SeekTo; on a plain io.Reader it scans sequentially and incidents and
// stats become available only once the stream ends.
//
// Concurrency contract: Next must be called from a single goroutine
// (PipelinedReader moves it to a background worker); Release may be
// called from a different goroutine than Next.
type Reader struct {
	br *bufio.Reader
	rs io.ReadSeeker // nil when the source is not seekable
	// base is the stream's start position within rs (footer offsets are
	// stream-relative).
	base int64

	profile string
	seed    int64

	hasFooter bool
	stats     StreamStats
	incidents []attack.Incident
	haveIncs  bool
	index     []ChunkInfo

	// src is the raw source reader, kept so block-length claims can be
	// checked against the source's remaining bytes before allocating.
	src io.Reader

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

// NewReader opens an IDT2 stream. The header is consumed immediately;
// if r seeks, the footer index and incident sidecar are loaded up front.
func NewReader(r io.Reader) (*Reader, error) {
	rd := &Reader{src: r, intern: make(map[string]string)}
	if rs, ok := r.(io.ReadSeeker); ok {
		rd.rs = rs
		base, err := rs.Seek(0, io.SeekCurrent)
		if err == nil {
			rd.base = base
		} else {
			rd.rs = nil
		}
	}
	rd.br = bufio.NewReaderSize(r, 256<<10)
	if err := rd.readHeader(); err != nil {
		return nil, err
	}
	if rd.rs != nil {
		if err := rd.loadFooter(); err != nil {
			// Unindexed or truncated stream: fall back to a sequential
			// scan with footer-dependent features disabled.
			rd.stats = StreamStats{}
			rd.index = nil
			rd.hasFooter = false
		}
		// Position after the header for sequential chunk reads.
		hdrLen := int64(headerFixedLen + len(rd.profile))
		if _, err := rd.rs.Seek(rd.base+hdrLen, io.SeekStart); err != nil {
			return nil, err
		}
		rd.br.Reset(rd.rs)
		if !rd.hasFooter {
			rd.rs = nil
		}
	}
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

// loadFooter reads the trailer and footer of a seekable stream.
func (r *Reader) loadFooter() error {
	end, err := r.rs.Seek(-trailerLen, io.SeekEnd)
	if err != nil {
		return err
	}
	var tr [trailerLen]byte
	if _, err := io.ReadFull(r.rs, tr[:]); err != nil {
		return err
	}
	if binary.BigEndian.Uint32(tr[8:12]) != trailerMagic {
		return errors.New("trace: no footer trailer")
	}
	footOff := int64(binary.BigEndian.Uint64(tr[0:8]))
	if footOff < 0 || r.base+footOff >= end {
		return errors.New("trace: footer offset out of range")
	}
	typ, payload, err := r.readBlockAt(r.base + footOff)
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
	nchunks := binary.BigEndian.Uint32(p[56:60])
	if nchunks > maxIndexEntries {
		return fmt.Errorf("trace: implausible chunk count %d", nchunks)
	}
	p = p[60:]
	const entryLen = 8 + 4 + 8 + 8
	if uint64(len(p)) != uint64(nchunks)*entryLen {
		return errors.New("trace: footer index length mismatch")
	}
	r.index = make([]ChunkInfo, nchunks)
	for i := range r.index {
		e := p[i*entryLen:]
		r.index[i] = ChunkInfo{
			Offset:  binary.BigEndian.Uint64(e[0:8]),
			Records: int(binary.BigEndian.Uint32(e[8:12])),
			FirstAt: time.Duration(binary.BigEndian.Uint64(e[12:20])),
			LastAt:  time.Duration(binary.BigEndian.Uint64(e[20:28])),
		}
	}
	r.stats.Chunks = len(r.index)
	typ, payload, err = r.readBlockAt(r.base + incOff)
	if err != nil {
		return err
	}
	if typ != blockIncidents {
		return fmt.Errorf("trace: incident block has type %d", typ)
	}
	if err := r.parseIncidents(payload); err != nil {
		return err
	}
	r.hasFooter = true
	return nil
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
	blen := binary.BigEndian.Uint32(hdr[1:5])
	if blen > maxBlockLen {
		return 0, nil, fmt.Errorf("trace: block length %d exceeds limit", blen)
	}
	if blen >= bigBlockLen {
		if end, err := r.rs.Seek(0, io.SeekEnd); err == nil {
			rem := end - (off + 5)
			if _, err := r.rs.Seek(off+5, io.SeekStart); err != nil {
				return 0, nil, err
			}
			if int64(blen) > rem {
				return 0, nil, fmt.Errorf("trace: block length %d exceeds remaining %d bytes", blen, rem)
			}
		}
	}
	if cap(r.scratch) < int(blen) {
		r.scratch = make([]byte, blen)
	}
	buf := r.scratch[:blen]
	if _, err := io.ReadFull(r.rs, buf); err != nil {
		return 0, nil, err
	}
	return hdr[0], buf, nil
}

// Profile returns the trace's generation profile name.
func (r *Reader) Profile() string { return r.profile }

// Seed returns the trace's generation seed.
func (r *Reader) Seed() int64 { return r.seed }

// Stats returns whole-trace statistics and whether they are known yet:
// immediately on an indexed (seekable) stream, after the footer on a
// sequential scan.
func (r *Reader) Stats() (StreamStats, bool) {
	return r.stats, r.hasFooter || r.finished
}

// Incidents returns the ground-truth sidecar, or nil if not yet known.
func (r *Reader) Incidents() []attack.Incident {
	if !r.haveIncs {
		return nil
	}
	return r.incidents
}

// Index returns the chunk index (seekable streams only).
func (r *Reader) Index() []ChunkInfo { return r.index }

// ChunksRead reports how many chunks have been decoded so far.
func (r *Reader) ChunksRead() int { return int(r.chunksRead.Load()) }

// SeekTo repositions the stream so the next chunk returned by Next is
// the first one whose time range ends at or after t. It requires an
// indexed, seekable stream.
func (r *Reader) SeekTo(t time.Duration) error {
	if r.rs == nil || !r.hasFooter {
		return errors.New("trace: SeekTo requires an indexed seekable stream")
	}
	lo, hi := 0, len(r.index)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.index[mid].LastAt < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	var off int64
	if lo == len(r.index) {
		// Past the last chunk: position at the incident block so Next
		// returns io.EOF after consuming the tail blocks.
		if len(r.index) == 0 {
			return r.seekStart()
		}
		last := r.index[len(r.index)-1]
		off = r.base + int64(last.Offset)
		// Skip the last chunk entirely.
		if _, err := r.rs.Seek(off, io.SeekStart); err != nil {
			return err
		}
		var hdr [5]byte
		if _, err := io.ReadFull(r.rs, hdr[:]); err != nil {
			return err
		}
		off += 5 + int64(binary.BigEndian.Uint32(hdr[1:5]))
	} else {
		off = r.base + int64(r.index[lo].Offset)
	}
	if _, err := r.rs.Seek(off, io.SeekStart); err != nil {
		return err
	}
	r.br.Reset(r.rs)
	r.finished = false
	return nil
}

func (r *Reader) seekStart() error {
	hdrLen := int64(headerFixedLen + len(r.profile))
	if _, err := r.rs.Seek(r.base+hdrLen, io.SeekStart); err != nil {
		return err
	}
	r.br.Reset(r.rs)
	r.finished = false
	return nil
}

// Next returns the next decoded chunk, or io.EOF at end of trace.
func (r *Reader) Next() (*Chunk, error) {
	if r.finished {
		return nil, io.EOF
	}
	for {
		var hdr [5]byte
		if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
			if err == io.EOF {
				// Unindexed stream that ended cleanly after a block.
				r.finished = true
				return nil, io.EOF
			}
			return nil, fmt.Errorf("trace: block header: %w", err)
		}
		blen := binary.BigEndian.Uint32(hdr[1:5])
		if blen > maxBlockLen {
			return nil, fmt.Errorf("trace: block length %d exceeds limit", blen)
		}
		if blen >= bigBlockLen {
			// A large claimed length is cross-checked against the bytes
			// the source can still produce, so a corrupt length field
			// fails here instead of allocating the claimed size.
			if rem, ok := remainingBytes(r.br, r.src); ok && uint64(blen) > rem {
				return nil, fmt.Errorf("trace: block length %d exceeds remaining %d bytes", blen, rem)
			}
		}
		switch hdr[0] {
		case blockChunk:
			c := r.getChunk(int(blen))
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
			r.chunksRead.Add(1)
			r.cChunks.Inc()
			r.cRecords.Add(uint64(len(c.Records)))
			r.cBytes.Add(uint64(blen) + 5)
			return c, nil
		case blockIncidents:
			if cap(r.scratch) < int(blen) {
				r.scratch = make([]byte, blen)
			}
			buf := r.scratch[:blen]
			if _, err := io.ReadFull(r.br, buf); err != nil {
				return nil, fmt.Errorf("trace: incident block: %w", err)
			}
			if !r.haveIncs {
				if err := r.parseIncidents(buf); err != nil {
					return nil, err
				}
			}
		case blockFooter:
			// Terminal block: consume and stop (footer contents were
			// either loaded at open or are only needed for Stats).
			if cap(r.scratch) < int(blen) {
				r.scratch = make([]byte, blen)
			}
			buf := r.scratch[:blen]
			if _, err := io.ReadFull(r.br, buf); err != nil {
				return nil, fmt.Errorf("trace: footer block: %w", err)
			}
			if !r.hasFooter {
				r.parseFooterStats(buf)
			}
			r.finished = true
			return nil, io.EOF
		default:
			return nil, fmt.Errorf("trace: unknown block type %d", hdr[0])
		}
	}
}

// parseFooterStats recovers summary statistics from a sequentially
// scanned footer (best effort; index omitted).
func (r *Reader) parseFooterStats(payload []byte) {
	if len(payload) < 8+6*8+3*4 {
		return
	}
	p := payload[8:]
	r.stats.Packets = binary.BigEndian.Uint64(p[0:8])
	r.stats.Bytes = binary.BigEndian.Uint64(p[8:16])
	r.stats.MaliciousPkts = binary.BigEndian.Uint64(p[16:24])
	r.stats.PayloadPackets = binary.BigEndian.Uint64(p[24:32])
	r.stats.FirstAt = time.Duration(binary.BigEndian.Uint64(p[32:40]))
	r.stats.LastAt = time.Duration(binary.BigEndian.Uint64(p[40:48]))
	r.stats.ClusterHosts = int(binary.BigEndian.Uint32(p[48:52]))
	r.stats.ExternalHosts = int(binary.BigEndian.Uint32(p[52:56]))
	r.stats.Chunks = int(binary.BigEndian.Uint32(p[56:60]))
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
	r.haveIncs = true
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

// remainingBytes reports how many unread bytes the source holds, when
// that is knowable without consuming it: buffered bytes plus the
// underlying reader's remainder for in-memory readers (Len) and
// seekable sources.
func remainingBytes(br *bufio.Reader, r io.Reader) (uint64, bool) {
	under := int64(-1)
	switch s := r.(type) {
	case interface{ Len() int }:
		under = int64(s.Len())
	case io.Seeker:
		cur, err1 := s.Seek(0, io.SeekCurrent)
		end, err2 := s.Seek(0, io.SeekEnd)
		if err1 == nil && err2 == nil {
			if _, err := s.Seek(cur, io.SeekStart); err == nil {
				under = end - cur
			}
		}
	}
	if under < 0 {
		return 0, false
	}
	return uint64(under) + uint64(br.Buffered()), true
}

// ReadBinary materializes a whole IDT2 stream as an in-memory Trace.
// Chunks are not released, so the returned records and payloads stay
// valid for the life of the Trace. Use NewReader to stream in O(chunk)
// memory instead.
func ReadBinary(r io.Reader) (*Trace, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{Profile: rd.Profile(), Seed: rd.Seed()}
	if st, ok := rd.Stats(); ok {
		t.Records = make([]Record, 0, minU64(st.Packets, 1<<20))
	}
	for {
		c, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		t.Records = append(t.Records, c.Records...)
	}
	if incs := rd.Incidents(); len(incs) > 0 {
		t.Incidents = incs
	}
	return t, nil
}

// ---- streaming recorder ----

// StreamRecorder captures packets straight into an IDT2 Writer, so
// recording memory is O(chunk) instead of O(capture). Plug Emit into a
// generator or netsim tap like Recorder's.
type StreamRecorder struct {
	sim *simtime.Sim
	w   *Writer
	err error
}

// NewStreamRecorder creates a recorder stamping records with sim's clock.
func NewStreamRecorder(sim *simtime.Sim, w *Writer) *StreamRecorder {
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
