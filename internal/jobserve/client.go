package jobserve

import (
	"net"

	"repro/internal/alloc"
	"repro/internal/wire"
)

// Client is the submit side of one wire connection. It mirrors the
// server's split: the submit half (Submit/Flush) and the receive half
// (Recv) may run on two goroutines concurrently — the pipelining shape
// every loadgen client uses — but each half is single-goroutine.
// Sequence numbers are implicit and assigned in submit order, starting
// at 0; Recv's records carry them back explicitly.
type Client struct {
	conn net.Conn
	enc  *wire.Encoder
	dec  *wire.Decoder
	seq  uint64
}

// Dial connects a client to a jobserve server. A nil pool means plain
// allocation (fine for tools; the benchmark passes a shared pool).
func Dial(addr string, pool *alloc.BufPool) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		// The codec already batches; let small frames leave immediately.
		tc.SetNoDelay(true)
	}
	return NewClient(conn, pool), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn, pool *alloc.BufPool) *Client {
	return &Client{
		conn: conn,
		enc:  wire.NewEncoder(conn, pool),
		dec:  wire.NewDecoder(conn, pool),
	}
}

// Submit encodes recs as one submit frame in the send buffer and
// returns the sequence number assigned to recs[0] (recs[i] is seq+i).
// Call Flush to put buffered frames on the wire.
func (c *Client) Submit(recs []wire.SubmitRecord) (uint64, error) {
	if err := c.enc.SubmitBatch(recs); err != nil {
		return 0, err
	}
	seq := c.seq
	c.seq += uint64(len(recs))
	return seq, nil
}

// Flush writes every buffered submit frame with one syscall.
func (c *Client) Flush() error {
	_, err := c.enc.Flush()
	return err
}

// Seq returns the next sequence number Submit will assign — the count
// of records submitted so far.
func (c *Client) Seq() uint64 { return c.seq }

// Recv returns the next result frame's records. The slice is valid only
// until the next Recv. It blocks until a frame arrives; a server-side
// close surfaces as an error (io.EOF after the last whole frame).
func (c *Client) Recv() ([]wire.ResultRecord, error) {
	for {
		ft, err := c.dec.Next()
		if err != nil {
			return nil, err
		}
		if ft == wire.FrameResults {
			return c.dec.Results(), nil
		}
		// Submit frames are not valid server→client; skip defensively.
	}
}

// Close recycles the codec buffers and closes the connection.
func (c *Client) Close() error {
	c.enc.Close()
	c.dec.Close()
	return c.conn.Close()
}
