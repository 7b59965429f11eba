// Streaming replay: a chunk source abstraction, the pipelined decoder,
// and the Reader-driven replay with O(chunk) scheduled state.
package trace

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/packet"
	"repro/internal/par"
	"repro/internal/simtime"
)

// ChunkSource yields decoded chunks in trace order; Next returns io.EOF
// at end of trace. *Reader and *PipelinedReader both implement it.
type ChunkSource interface {
	Next() (*Chunk, error)
}

// PipelinedReader decodes ahead of its consumer: a single internal/par
// worker pulls chunks from the underlying Reader so chunk N+1 is
// decoding (and its I/O in flight) while chunk N replays. Buffer
// recycling stays safe because Chunk.Release hands buffers back through
// a mutex-guarded freelist shared with the decode worker.
type PipelinedReader struct {
	pipe *par.Pipe[*Chunk]
}

// NewPipelinedReader starts decoding ahead by up to depth chunks
// (depth < 1 is treated as 1).
func NewPipelinedReader(r *Reader, depth int) *PipelinedReader {
	return &PipelinedReader{
		pipe: par.NewPipe(depth, func() (*Chunk, error) { return r.Next() }),
	}
}

// Next returns the next chunk in trace order, or io.EOF at end.
func (p *PipelinedReader) Next() (*Chunk, error) { return p.pipe.Next() }

// Close stops the decode worker. It must be called when abandoning the
// stream early; after a clean io.EOF it is a no-op.
func (p *PipelinedReader) Close() { p.pipe.Stop() }

// ReplayStream is the handle for an in-flight streaming replay. Chunk
// fetch and scheduling continue inside simulation events after
// ReplayReader returns, so decode errors that surface mid-run are
// reported here; check Err after the simulation drains.
type ReplayStream struct {
	err    error
	chunks int
}

// Err returns the first mid-replay fetch/schedule error, if any.
func (rs *ReplayStream) Err() error { return rs.err }

// Chunks reports how many chunks have been scheduled so far.
func (rs *ReplayStream) Chunks() int { return rs.chunks }

// releaseLag is how many chunks a replayed chunk is kept alive after
// its successor starts. Packets emitted into a testbed sit in bounded
// network queues for at most milliseconds, while a chunk spans seconds
// of virtual time at any realistic packet rate; a two-chunk lag leaves
// the recycled arena untouchable until long after the last reference
// drained, even for pathologically short chunks.
const releaseLag = 2

// ReplayReader schedules a streamed trace onto sim at its original
// pacing: the first record fires at start, every later one at the same
// offset from it as in the trace, and each packet is delivered through
// emit. Memory is O(chunk): only the current chunk's records are
// scheduled, and an advance event at each chunk's last record time
// fetches and schedules the next chunk. With a PipelinedReader source
// the next chunk is already decoded when the advance event fires.
//
// A chunk's records are scheduled in trace order, and the advance event
// for chunk N+1 is scheduled after chunk N's records, so at a shared
// timestamp the packet event fires first and the emit order is the
// trace order. Replayed chunks are released back to the reader
// releaseLag chunks later.
//
// The returned handle carries errors from advance events that fire
// while the simulation runs; callers must check handle.Err() after the
// sim drains.
func ReplayReader(sim *simtime.Sim, src ChunkSource, start time.Duration, emit func(p *packet.Packet)) (*ReplayStream, error) {
	if emit == nil {
		return nil, errors.New("trace: nil emit")
	}
	rs := &ReplayStream{}
	first, err := src.Next()
	if err == io.EOF {
		return rs, nil
	}
	if err != nil {
		return nil, err
	}
	offset := start - first.FirstAt()
	schedule := func(c *Chunk) error {
		for i := range c.Records {
			rec := c.Records[i]
			if _, err := sim.ScheduleAt(offset+rec.At, func() { emit(rec.Pk) }); err != nil {
				return err
			}
		}
		return nil
	}

	// held keeps the most recent releaseLag replayed chunks alive so
	// packets still in flight through the network model cannot alias a
	// recycled arena. held[0] is oldest.
	var held [releaseLag]*Chunk
	retire := func(c *Chunk) {
		if old := held[0]; old != nil {
			old.Release()
		}
		copy(held[:], held[1:])
		held[len(held)-1] = c
	}

	var advance func()
	advance = func() {
		c, err := src.Next()
		if err == io.EOF {
			// Trailing chunks are left for the GC: packets may still be
			// in flight when the stream ends.
			return
		}
		if err != nil {
			rs.err = fmt.Errorf("trace: streaming replay: %w", err)
			return
		}
		if err := schedule(c); err != nil {
			rs.err = err
			return
		}
		rs.chunks++
		if _, err := sim.ScheduleAt(offset+c.LastAt(), advance); err != nil {
			rs.err = err
			return
		}
		retire(c)
	}

	if err := schedule(first); err != nil {
		return nil, err
	}
	rs.chunks = 1
	if _, err := sim.ScheduleAt(offset+first.LastAt(), advance); err != nil {
		return nil, err
	}
	retire(first)
	return rs, nil
}
