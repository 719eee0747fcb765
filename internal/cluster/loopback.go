package cluster

import (
	"context"
)

// Loopback is an in-process ShardClient: requests are executed directly
// against a ShardEngine, but every message still round-trips through the
// wire codec (encode → decode on the "server", encode → decode on the
// "client"), so the whole coordinator/shard stack — codec included — is
// testable and benchmarkable without sockets.
type Loopback struct {
	sh *ShardEngine
}

// NewLoopback wraps a ShardEngine as an in-process transport.
func NewLoopback(sh *ShardEngine) *Loopback { return &Loopback{sh: sh} }

// Do executes the request in-process through the codec.
func (l *Loopback) Do(ctx context.Context, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	reqFrame, err := AppendRequest(nil, req)
	if err != nil {
		return nil, err
	}
	decoded, err := DecodeRequest(reqFrame)
	if err != nil {
		return nil, err
	}
	resp := l.sh.Execute(decoded)
	respFrame, err := AppendResponse(nil, resp)
	resp.Result.Release() // as the TCP server does once the frame exists
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		// The engine finished after the caller gave up (the attempt's
		// deadline passed); the result must not be double-counted.
		return nil, err
	}
	return DecodeResponse(respFrame)
}

// Close is a no-op for the loopback transport.
func (l *Loopback) Close() error { return nil }
