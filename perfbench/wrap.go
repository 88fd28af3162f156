package main

import (
	"io"
	"net/http"
	"sync"
	"time"

	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/ooc"
	"pclouds/internal/record"
	"pclouds/internal/stream"
)

// The wrappers in this file sit at the boundaries between the benchmark and
// the program's layers in a traced run. Each forwards every call unchanged
// and records a span on its lane plus per-layer totals, so a traced build
// produces the same tree and the same traffic as an untraced one.

// commTimes accumulates wall time spent in a rank's Send and Recv calls,
// split by traffic class.
type commTimes struct {
	mu   sync.Mutex
	send [comm.NumOpClasses]float64
	recv [comm.NumOpClasses]float64
}

func (t *commTimes) add(recv bool, cl comm.OpClass, d float64) {
	t.mu.Lock()
	if recv {
		t.recv[cl] += d
	} else {
		t.send[cl] += d
	}
	t.mu.Unlock()
}

// tracedComm is a comm.Communicator that records every Send and Recv. It
// forwards CountCall, so the transport's per-class call counts are the
// same as without the wrapper.
type tracedComm struct {
	inner comm.Communicator
	lane  *lane
	times *commTimes
}

func (c *tracedComm) Rank() int               { return c.inner.Rank() }
func (c *tracedComm) Size() int               { return c.inner.Size() }
func (c *tracedComm) Clock() *costmodel.Clock { return c.inner.Clock() }
func (c *tracedComm) Stats() comm.Stats       { return c.inner.Stats() }

func (c *tracedComm) CountCall(cl comm.OpClass) {
	if cc, ok := c.inner.(comm.CallCounter); ok {
		cc.CountCall(cl)
	}
}

func (c *tracedComm) Send(to int, tag comm.Tag, data []byte) error {
	s0 := c.lane.now()
	err := c.inner.Send(to, tag, data)
	c.times.add(false, comm.ClassOf(tag), c.lane.done("comm.send", s0))
	return err
}

func (c *tracedComm) Recv(from int, tag comm.Tag) ([]byte, error) {
	s0 := c.lane.now()
	data, err := c.inner.Recv(from, tag)
	c.times.add(true, comm.ClassOf(tag), c.lane.done("comm.recv", s0))
	return data, err
}

// backendTimes accumulates wall time spent in a store's medium.
type backendTimes struct {
	mu                sync.Mutex
	read, write, sync float64
}

func (t *backendTimes) add(dst *float64, d float64) {
	t.mu.Lock()
	*dst += d
	t.mu.Unlock()
}

// tracedBackend is an ooc.Backend that times the medium's reads, writes
// and syncs. Install it with Store.WrapBackend before EnableIntegrity, so
// the verifier sits above it and the wrapper times raw file I/O.
type tracedBackend struct {
	inner ooc.Backend
	lane  *lane
	times *backendTimes
}

func (b *tracedBackend) Create(name string) (io.WriteCloser, error) {
	w, err := b.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &tracedWriter{w: w, b: b}, nil
}

func (b *tracedBackend) Append(name string) (io.WriteCloser, error) {
	w, err := b.inner.Append(name)
	if err != nil {
		return nil, err
	}
	return &tracedWriter{w: w, b: b}, nil
}

func (b *tracedBackend) Open(name string) (io.ReadCloser, error) {
	r, err := b.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &tracedReader{r: r, b: b}, nil
}

func (b *tracedBackend) Size(name string) (int64, error) { return b.inner.Size(name) }
func (b *tracedBackend) Remove(name string) error        { return b.inner.Remove(name) }
func (b *tracedBackend) Rename(oldName, newName string) error {
	return b.inner.Rename(oldName, newName)
}
func (b *tracedBackend) List() ([]string, error) { return b.inner.List() }

func (b *tracedBackend) Sync(name string) error {
	s0 := b.lane.now()
	err := b.inner.Sync(name)
	b.times.add(&b.times.sync, b.lane.done("ooc.sync", s0))
	return err
}

type tracedWriter struct {
	w io.WriteCloser
	b *tracedBackend
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	s0 := w.b.lane.now()
	n, err := w.w.Write(p)
	w.b.times.add(&w.b.times.write, w.b.lane.done("ooc.write", s0))
	return n, err
}

func (w *tracedWriter) Close() error {
	s0 := w.b.lane.now()
	err := w.w.Close()
	w.b.times.add(&w.b.times.write, w.b.lane.done("ooc.write", s0))
	return err
}

type tracedReader struct {
	r io.ReadCloser
	b *tracedBackend
}

func (r *tracedReader) Read(p []byte) (int, error) {
	s0 := r.b.lane.now()
	n, err := r.r.Read(p)
	r.b.times.add(&r.b.times.read, r.b.lane.done("ooc.read", s0))
	return n, err
}

func (r *tracedReader) Close() error { return r.r.Close() }

// windowSource wraps a stream source. It stamps the time at which each
// window's first record is requested, which is when the previous window
// has been closed, committed and published. With timed set it also sums
// the wall time spent inside the source.
type windowSource struct {
	inner      stream.Source
	windowSize int64
	timed      bool

	n      int64
	starts []time.Time
	busy   time.Duration
}

func (s *windowSource) Next(rec *record.Record) (bool, error) {
	if s.n%s.windowSize == 0 {
		s.starts = append(s.starts, time.Now())
	}
	var t0 time.Time
	if s.timed {
		t0 = time.Now()
	}
	ok, err := s.inner.Next(rec)
	if s.timed {
		s.busy += time.Since(t0)
	}
	if ok {
		s.n++
	}
	return ok, err
}

func (s *windowSource) Close() error { return s.inner.Close() }

// tracedHandler wraps Server.Handler(): every request becomes a
// "serve.handler" span on its connection's lane, carrying the request id
// the client sent, so client and server spans of one request can be
// matched.
func tracedHandler(tr *tracer, inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ln := tr.lane("server " + r.RemoteAddr)
		s0 := ln.now()
		inner.ServeHTTP(w, r)
		ln.doneID("serve.handler", r.Header.Get(reqIDHeader), s0)
	})
}

// reqIDHeader carries the client's request id to the server.
const reqIDHeader = "X-Bench-Request"
