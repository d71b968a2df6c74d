package ddclient

import (
	"bufio"
	"net"
	"sync/atomic"
	"testing"

	"datadroplets/internal/wire"
)

// countingConn counts the Write calls the client makes on its
// connection: with the flusher, one per burst rather than one per Do.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// respondOK serves one connection: it checks the magic and answers
// every request with an empty OK, flushing when it has no more input
// buffered, the way the server's writer does.
func respondOK(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	if wire.ReadMagic(r) != nil {
		return
	}
	var req wire.Request
	ok := wire.Response{Status: wire.StatusOK}
	for {
		if err := wire.DecodeRequest(r, &req); err != nil {
			return
		}
		if wire.EncodeResponse(w, &ok) != nil {
			return
		}
		if r.Buffered() == 0 && w.Flush() != nil {
			return
		}
	}
}

// BenchmarkPipelinedDo issues 1 000-op bursts of Puts from one
// goroutine over loopback and reports writes/op, the write(2) calls per
// request. A client that flushed every Do would read 1.
func BenchmarkPipelinedDo(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go respondOK(conn)
		}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	conn := &countingConn{Conn: raw}
	c, err := newClient(conn, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	req := wire.Request{Op: wire.OpPut, Key: "bench-key", Value: make([]byte, 100)}
	const burst = 1000
	futs := make([]*Future, 0, burst)
	settle := func() {
		for _, f := range futs {
			if resp, err := f.Wait(); err != nil || resp.Status != wire.StatusOK {
				b.Fatalf("status %v, %v", resp.Status, err)
			}
		}
		futs = futs[:0]
	}
	conn.writes.Store(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := c.Do(&req)
		if err != nil {
			b.Fatal(err)
		}
		if futs = append(futs, f); len(futs) == burst {
			settle()
		}
	}
	settle()
	b.StopTimer()
	b.ReportMetric(float64(conn.writes.Load())/float64(b.N), "writes/op")
}
