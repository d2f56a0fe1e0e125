package remote

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"toorjah/internal/obs"
)

// maxIdleConns caps the idle connections a client keeps open to its peer.
const maxIdleConns = 32

// transport speaks HTTP/1.1 to one peer over keep-alive connections, all of
// it on the goroutine that makes the request: the request head and body
// leave in one Write and the response is parsed off the connection's reader
// by http.ReadResponse. net/http's Transport hands every request to a
// connection's writer goroutine and the reply back from its reader
// goroutine; a probe is one small write and one small read, and those two
// hand-offs cost more than the bytes do. No proxy is consulted and no
// redirect followed: a peer is one plain http:// address.
type transport struct {
	addr string // host:port to dial
	host string // the Host header
	path string // the base URL's path, in front of every request's

	mu   sync.Mutex
	idle []*conn // most recently used last
}

// conn is one connection to the peer and the reader its responses are
// parsed from.
type conn struct {
	net.Conn
	br *bufio.Reader
	// abort fails the read or write pending on the connection; stop cancels
	// the context.AfterFunc that calls it for the request in flight.
	abort func()
	stop  func() bool
}

// aLongTimeAgo is a deadline in the past: set on a connection, it fails the
// read or write pending on it at once.
var aLongTimeAgo = time.Unix(1, 0)

// newTransport prepares a transport for the peer at base. Only http:// is
// spoken: no node serves TLS.
func newTransport(base string) (*transport, error) {
	u, err := url.Parse(base)
	switch {
	case err != nil:
		return nil, err
	case u.Scheme != "http":
		return nil, fmt.Errorf("peer URL scheme %q is not supported: peers are reached over plain http://", u.Scheme)
	case u.Host == "":
		return nil, fmt.Errorf("peer URL %q names no host", base)
	}
	port := u.Port()
	if port == "" {
		port = "80"
	}
	return &transport{
		addr: net.JoinHostPort(u.Hostname(), port),
		host: u.Host,
		path: u.EscapedPath(),
	}, nil
}

// appendRequest appends an HTTP/1.1 request for path: a GET when body is
// nil, a POST of the JSON body otherwise, with the trace ID, when there is
// one, in obs.TraceHeader. A trace ID is one obs.NewTraceID made or one a
// request header carried, so it is a valid header value.
func (t *transport) appendRequest(dst []byte, path, traceID string, body []byte) []byte {
	if body == nil {
		dst = append(dst, "GET "...)
	} else {
		dst = append(dst, "POST "...)
	}
	dst = append(dst, t.path...)
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, t.host...)
	dst = append(dst, "\r\n"...)
	if body != nil {
		dst = append(dst, "Content-Type: application/json\r\nContent-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body)), 10)
		dst = append(dst, "\r\n"...)
	}
	if traceID != "" {
		dst = append(dst, obs.TraceHeader+": "...)
		dst = append(dst, traceID...)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	return append(dst, body...)
}

// roundTrip writes req — a request as appendRequest renders it — on an idle
// connection or a new one, and reads the response head. The caller reads the
// body and then hands the connection back with release. Once ctx is done
// the connection's pending read or write fails: roundTrip then reports ctx's
// error, and a caller reading the body passes its read error through ctxErr.
//
// A request that fails on an idle connection before any byte of a response
// arrives — the peer closed the connection while it was idle — is sent once
// more, without backoff, on a new connection, as net/http does: every
// request here is an idempotent read.
func (t *transport) roundTrip(ctx context.Context, req []byte) (*conn, *http.Response, error) {
	cn := t.popIdle()
	reused := cn != nil
	for {
		if cn == nil {
			var d net.Dialer
			nc, err := d.DialContext(ctx, "tcp", t.addr)
			if err != nil {
				return nil, nil, ctxErr(ctx, err)
			}
			cn = &conn{Conn: nc, br: bufio.NewReader(nc), abort: func() {
				_ = nc.SetDeadline(aLongTimeAgo) // an error means nc is closed already
			}}
		}
		cn.stop = context.AfterFunc(ctx, cn.abort)
		resp, arrived, err := cn.exchange(req)
		if err == nil {
			return cn, resp, nil
		}
		t.release(cn, nil, false)
		if ctx.Err() != nil || !reused || arrived {
			return nil, nil, ctxErr(ctx, err)
		}
		cn, reused = nil, false
	}
}

// exchange writes req and reads the response head; arrived reports whether
// any of the response had come when it failed.
func (cn *conn) exchange(req []byte) (_ *http.Response, arrived bool, _ error) {
	_, err := cn.Write(req)
	if err == nil {
		_, err = cn.br.Peek(1)
	}
	if err != nil {
		return nil, false, err
	}
	resp, err := http.ReadResponse(cn.br, nil)
	return resp, true, err
}

// ctxErr is err, or ctx's error once ctx is done: the deadline the
// cancellation set is how the I/O learnt of it, not what went wrong.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// popIdle takes the most recently used idle connection, or nil.
func (t *transport) popIdle() *conn {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.idle)
	if n == 0 {
		return nil
	}
	cn := t.idle[n-1]
	t.idle[n-1] = nil
	t.idle = t.idle[:n-1]
	return cn
}

// release ends the request on cn. The connection goes back to the idle list
// only when read says its response body was read to the end, the response
// did not ask to close it, and the request's context never fired; any other
// is closed, as is one the full idle list has no room for.
func (t *transport) release(cn *conn, resp *http.Response, read bool) {
	if cn.stop() && read && !resp.Close && t.putIdle(cn) {
		return
	}
	cn.Close()
}

// putIdle files cn as idle, unless maxIdleConns are already.
func (t *transport) putIdle(cn *conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.idle) >= maxIdleConns {
		return false
	}
	t.idle = append(t.idle, cn)
	return true
}

// closeIdle closes every idle connection.
func (t *transport) closeIdle() {
	t.mu.Lock()
	idle := t.idle
	t.idle = nil
	t.mu.Unlock()
	for _, cn := range idle {
		cn.Close()
	}
}
