package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/trace"
)

// Client is the reference ISF2 client used by the tests, cmd/smoke,
// and anyone streaming a trace to idsevald from Go. It is lock-step by
// design — one frame out, one reply in — which keeps resume trivial:
// Next always equals the count of chunks the server has durably acked.
type Client struct {
	conn net.Conn
	fr   *trace.FrameReader
	fw   *trace.FrameWriter
	name string

	// Timeout bounds each frame exchange (default 30s).
	Timeout time.Duration
	// Next is the next ordinal to send, as told by the server.
	Next uint32
	// State is the stream state from the Hello ack.
	State string
	// SentBytes accumulates payload bytes acked this session.
	SentBytes int64
}

// Dial connects to an idsevald TCP endpoint.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	return &Client{
		conn:    conn,
		fr:      trace.NewFrameReader(bufio.NewReaderSize(conn, 64<<10), 0),
		fw:      trace.NewFrameWriter(conn),
		Timeout: 30 * time.Second,
	}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) send(typ byte, ord uint32, payload []byte) error {
	c.conn.SetWriteDeadline(time.Now().Add(c.Timeout))
	return c.fw.Write(typ, ord, payload)
}

func (c *Client) sendJSON(typ byte, ord uint32, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return c.send(typ, ord, b)
}

func (c *Client) read() (trace.Frame, error) {
	c.conn.SetReadDeadline(time.Now().Add(c.Timeout))
	return c.fr.Next()
}

// reply reads one control frame and maps Reject/Error frames onto
// their Go error types.
func (c *Client) reply() (trace.Frame, error) {
	f, err := c.read()
	if err != nil {
		return f, err
	}
	switch f.Type {
	case trace.FrameReject:
		var ri rejectInfo
		if err := json.Unmarshal(f.Payload, &ri); err != nil {
			return f, fmt.Errorf("serve: malformed reject: %w", err)
		}
		return f, &RejectError{Reason: ri.Reason, RetryAfter: time.Duration(ri.RetryAfterMs) * time.Millisecond}
	case trace.FrameError:
		var ei errorInfo
		if err := json.Unmarshal(f.Payload, &ei); err != nil {
			return f, fmt.Errorf("serve: malformed error frame: %w", err)
		}
		return f, &ProtocolError{Msg: ei.Error, Next: ei.Next}
	}
	return f, nil
}

// Hello opens (or resumes) the stream. On return Next tells the caller
// where to resume and State whether the stream is still uploadable.
func (c *Client) Hello(meta StreamMeta) error {
	c.name = meta.Name
	if err := c.sendJSON(trace.FrameHello, 0, meta); err != nil {
		return err
	}
	f, err := c.reply()
	if err != nil {
		return err
	}
	if f.Type != trace.FrameAck {
		return fmt.Errorf("serve: hello: unexpected frame type %d", f.Type)
	}
	var ack helloAck
	if err := json.Unmarshal(f.Payload, &ack); err != nil {
		return fmt.Errorf("serve: malformed hello ack: %w", err)
	}
	c.Next, c.State = ack.Next, ack.State
	return nil
}

// SendChunk uploads one chunk at the current resume point. On success
// Next advances past the server's durable ack. A *RejectError means
// backpressure: nothing was accepted, retry after the hint.
func (c *Client) SendChunk(payload []byte) error {
	if err := c.send(trace.FrameData, c.Next, payload); err != nil {
		return err
	}
	f, err := c.reply()
	if err != nil {
		return err
	}
	if f.Type != trace.FrameAck {
		return fmt.Errorf("serve: chunk %d: unexpected frame type %d", c.Next, f.Type)
	}
	var ack ackInfo
	if err := json.Unmarshal(f.Payload, &ack); err != nil {
		return fmt.Errorf("serve: malformed chunk ack: %w", err)
	}
	c.Next = ack.Next
	c.SentBytes += int64(len(payload))
	return nil
}

// SendChunkRetry is SendChunk with bounded doubling-backoff retries on
// backpressure rejects. Non-reject errors surface immediately.
func (c *Client) SendChunkRetry(payload []byte, attempts int, backoff time.Duration) error {
	for attempt := 1; ; attempt++ {
		err := c.SendChunk(payload)
		var re *RejectError
		if err == nil || !errors.As(err, &re) || attempt >= attempts {
			return err
		}
		wait := backoff
		if re.RetryAfter > wait {
			wait = re.RetryAfter
		}
		time.Sleep(wait)
		backoff *= 2
	}
}

// Finish declares the upload complete with the exact totals the server
// must have acked. A *RejectError (queue full) leaves the stream open
// and durable — call Finish again after the hint.
func (c *Client) Finish(chunks uint64, bytes int64) error {
	if err := c.sendJSON(trace.FrameFinish, uint32(chunks), finishReq{Chunks: chunks, Bytes: bytes}); err != nil {
		return err
	}
	f, err := c.reply()
	if err != nil {
		return err
	}
	if f.Type != trace.FrameAck {
		return fmt.Errorf("serve: finish: unexpected frame type %d", f.Type)
	}
	return nil
}

// FinishRetry is Finish with bounded doubling-backoff retries on
// backpressure rejects.
func (c *Client) FinishRetry(chunks uint64, bytes int64, attempts int, backoff time.Duration) error {
	for attempt := 1; ; attempt++ {
		err := c.Finish(chunks, bytes)
		var re *RejectError
		if err == nil || !errors.As(err, &re) || attempt >= attempts {
			return err
		}
		wait := backoff
		if re.RetryAfter > wait {
			wait = re.RetryAfter
		}
		time.Sleep(wait)
		backoff *= 2
	}
}

// Await consumes the result feed until it terminates, invoking onEvent
// (when non-nil) for each incremental event, and returns the final
// scorecard. Evaluation can far outlast one frame timeout, so waitFor
// bounds the whole feed instead; it must comfortably exceed the
// expected evaluation time.
func (c *Client) Await(waitFor time.Duration, onEvent func(kind EventKind, payload []byte)) ([]byte, error) {
	deadline := time.Now().Add(waitFor)
	var card []byte
	for {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("serve: no terminal frame within %v", waitFor)
		}
		c.conn.SetReadDeadline(deadline)
		f, err := c.fr.Next()
		if err != nil {
			return nil, err
		}
		switch f.Type {
		case trace.FrameResult:
			if onEvent != nil {
				onEvent(EventResult, f.Payload)
			}
		case trace.FrameScorecard:
			card = append([]byte(nil), f.Payload...)
			if onEvent != nil {
				onEvent(EventScorecard, f.Payload)
			}
		case trace.FrameComplete:
			if card == nil {
				return nil, fmt.Errorf("serve: complete without scorecard")
			}
			return card, nil
		case trace.FrameError:
			var ei errorInfo
			if err := json.Unmarshal(f.Payload, &ei); err != nil {
				return nil, fmt.Errorf("serve: malformed error frame: %w", err)
			}
			return nil, fmt.Errorf("serve: evaluation feed: %s", ei.Error)
		default:
			return nil, fmt.Errorf("serve: unexpected frame type %d in result feed", f.Type)
		}
	}
}
