package cluster

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ShardClient sends one request to one shard and returns its partial
// aggregate. Implementations must be safe for concurrent use: the
// coordinator fans out and retries over the same client.
type ShardClient interface {
	// Do sends req and waits for the matching response, honouring ctx's
	// deadline and cancellation. The request's ID field is owned by the
	// transport (it stamps a fresh ID per exchange), so one *Request may
	// be shared by concurrent attempts.
	Do(ctx context.Context, req *Request) (*Response, error)
	// Close releases the transport's resources.
	Close() error
}

// poolConn is a pooled connection with its buffered reader (the reader may
// hold the start of a response, so it must travel with the connection).
type poolConn struct {
	net.Conn
	br *bufio.Reader
}

// TCPClient is a ShardClient over real sockets, with a small idle
// connection pool. Each Do leases one connection for a strict
// request/response exchange; responses are matched by ID and a connection
// that errors (or whose exchange is abandoned by cancellation) is discarded
// rather than reused, so a late response can never be mistaken for the
// answer to a newer request.
type TCPClient struct {
	addr        string
	dialTimeout time.Duration
	nextID      atomic.Uint64

	mu     sync.Mutex
	idle   []*poolConn
	closed bool
}

// maxIdleConns bounds the per-shard idle pool; beyond it, finished
// connections are closed instead of pooled.
const maxIdleConns = 4

// DialShard returns a TCP client for a shard server at addr. No connection
// is made until the first Do.
func DialShard(addr string, dialTimeout time.Duration) *TCPClient {
	if dialTimeout <= 0 {
		dialTimeout = 2 * time.Second
	}
	return &TCPClient{addr: addr, dialTimeout: dialTimeout}
}

// Addr returns the shard server address this client dials.
func (c *TCPClient) Addr() string { return c.addr }

func (c *TCPClient) lease(ctx context.Context) (*poolConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: client for %s is closed", c.addr)
	}
	if n := len(c.idle); n > 0 {
		pc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return pc, nil
	}
	c.mu.Unlock()
	d := net.Dialer{Timeout: c.dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dialing shard %s: %w", c.addr, err)
	}
	return &poolConn{Conn: conn, br: bufio.NewReader(conn)}, nil
}

func (c *TCPClient) release(pc *poolConn) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < maxIdleConns {
		c.idle = append(c.idle, pc)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	pc.Close()
}

// Do performs one request/response exchange on a pooled connection.
func (c *TCPClient) Do(ctx context.Context, req *Request) (*Response, error) {
	pc, err := c.lease(ctx)
	if err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		pc.SetDeadline(dl)
	} else {
		pc.SetDeadline(time.Time{})
	}
	// A cancelled context must unblock a blocked read promptly (the caller
	// gave up before the deadline): yank the deadline to the past.
	stop := context.AfterFunc(ctx, func() { pc.SetDeadline(time.Unix(1, 0)) })
	resp, err := c.exchange(pc, req)
	if !stop() {
		pc.Close() // its deadline was yanked: never reuse it
		if err != nil {
			return nil, ctx.Err()
		}
		return resp, nil
	}
	if err != nil {
		pc.Close() // connection state is unknown; never reuse it
		return nil, fmt.Errorf("cluster: shard %s: %w", c.addr, err)
	}
	c.release(pc)
	return resp, nil
}

func (c *TCPClient) exchange(pc *poolConn, req *Request) (*Response, error) {
	wr := *req
	wr.ID = c.nextID.Add(1)
	if err := WriteRequest(pc, &wr); err != nil {
		return nil, err
	}
	resp, err := ReadResponse(pc.br)
	if err != nil {
		return nil, err
	}
	if resp.ID != wr.ID {
		return nil, fmt.Errorf("response ID %d for request %d", resp.ID, wr.ID)
	}
	return resp, nil
}

// Close closes the idle pool. Connections leased by in-flight calls are
// closed as those calls finish.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, pc := range c.idle {
		pc.Close()
	}
	c.idle = nil
	return nil
}
