package main

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/ooc"
	"pclouds/internal/record"
	"pclouds/internal/stream"
)

// collectives runs a mix of collectives on c and returns what it received.
func collectives(c comm.Communicator) ([]byte, error) {
	var out bytes.Buffer
	sum, err := comm.AllReduceInt64(c, []int64{int64(c.Rank() + 1), 7}, func(a, b int64) int64 { return a + b })
	if err != nil {
		return nil, err
	}
	fmt.Fprint(&out, sum)
	all, err := comm.AllGather(c, []byte{byte(c.Rank()), 1, 2})
	if err != nil {
		return nil, err
	}
	fmt.Fprint(&out, all)
	parts := make([][]byte, c.Size())
	for i := range parts {
		parts[i] = bytes.Repeat([]byte{byte(c.Rank())}, 10*(i+1))
	}
	got, err := comm.AllToAll(c, parts)
	if err != nil {
		return nil, err
	}
	fmt.Fprint(&out, got)
	switch c.Rank() {
	case 0:
		err = c.Send(1, comm.TagUser, []byte("p2p"))
	case 1:
		var msg []byte
		msg, err = c.Recv(0, comm.TagUser)
		out.Write(msg)
	}
	return out.Bytes(), err
}

// runGroup runs collectives on a 3-rank channel group, wrapped or not.
func runGroup(t *testing.T, wrapped bool) ([][]byte, []comm.Stats, *tracer) {
	t.Helper()
	const p = 3
	outs := make([][]byte, p)
	stats := make([]comm.Stats, p)
	tr := newTracer()
	var mu sync.Mutex
	err := comm.Run(p, costmodel.Default(), func(c *comm.ChannelComm) error {
		var cc comm.Communicator = c
		if wrapped {
			cc = &tracedComm{inner: c, lane: tr.lane(fmt.Sprintf("rank %d", c.Rank())), times: &commTimes{}}
		}
		out, err := collectives(cc)
		mu.Lock()
		outs[c.Rank()], stats[c.Rank()] = out, cc.Stats()
		mu.Unlock()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return outs, stats, tr
}

func TestTracedCommIsTransparent(t *testing.T) {
	plainOut, plainStats, _ := runGroup(t, false)
	out, stats, tr := runGroup(t, true)
	if !reflect.DeepEqual(plainOut, out) {
		t.Fatalf("wrapped results differ:\n%q\n%q", plainOut, out)
	}
	for r := range stats {
		// Wait time is measured wall time; everything else, including the
		// per-class call counts the wrapper forwards, must match exactly.
		a, b := plainStats[r], stats[r]
		a.WaitSec, b.WaitSec = 0, 0
		for cl := range a.Ops {
			a.Ops[cl].WaitSec, b.Ops[cl].WaitSec = 0, 0
		}
		if a != b {
			t.Fatalf("rank %d stats differ:\n%+v\n%+v", r, a, b)
		}
	}
	if got := stats[0].Ops[comm.OpAllToAll].Calls; got != 1 {
		t.Fatalf("alltoall calls %d through the wrapper, want 1", got)
	}
	if n := len(tr.spansNamed("comm.send")) + len(tr.spansNamed("comm.recv")); n == 0 {
		t.Fatal("the wrapper recorded no spans")
	}
}

func TestTracedBackendIsTransparent(t *testing.T) {
	recs := workloads["build-clean"].generator(1).Generate(5000).Records
	run := func(wrapped, integrity bool) ([]record.Record, ooc.IOStats, *backendTimes, *tracer) {
		tr := newTracer()
		times := &backendTimes{}
		store := ooc.NewMemStore(datagen.Schema(), costmodel.Zero(), nil)
		if wrapped {
			store.WrapBackend(func(inner ooc.Backend) ooc.Backend {
				return &tracedBackend{inner: inner, lane: tr.lane("rank 0"), times: times}
			})
		}
		if integrity {
			store.EnableIntegrity(ooc.IntegrityOptions{})
		}
		if err := store.WriteAll("f", recs); err != nil {
			t.Fatal(err)
		}
		if err := store.Sync("f"); err != nil {
			t.Fatal(err)
		}
		back, err := store.ReadAll("f")
		if err != nil {
			t.Fatal(err)
		}
		return back, store.Stats(), times, tr
	}
	for _, integrity := range []bool{false, true} {
		plain, plainIO, _, _ := run(false, integrity)
		got, io, times, tr := run(true, integrity)
		if !reflect.DeepEqual(plain, got) || !reflect.DeepEqual(recs, got) {
			t.Fatalf("integrity=%v: records differ through the wrapper", integrity)
		}
		if plainIO != io {
			t.Fatalf("integrity=%v: io stats differ: %+v vs %+v", integrity, plainIO, io)
		}
		if times.read <= 0 || times.write <= 0 || len(tr.spansNamed("ooc.read")) == 0 || len(tr.spansNamed("ooc.sync")) != 1 {
			t.Fatalf("integrity=%v: wrapper did not time the medium: %+v", integrity, times)
		}
	}
}

func TestWindowSourceIsTransparent(t *testing.T) {
	cfg := datagen.Config{Function: 2, Seed: 3}
	plain, err := stream.NewSynthetic(cfg, 2500)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := stream.NewSynthetic(cfg, 2500)
	if err != nil {
		t.Fatal(err)
	}
	ws := &windowSource{inner: inner, windowSize: 1000, timed: true}
	for i := 0; ; i++ {
		var a, b record.Record
		okA, errA := plain.Next(&a)
		okB, errB := ws.Next(&b)
		if okA != okB || errA != errB || !reflect.DeepEqual(a, b) {
			t.Fatalf("record %d differs through the wrapper", i)
		}
		if !okA {
			break
		}
	}
	// Windows start at records 0, 1000 and 2000; the call that finds the
	// end of the stream (record 2500) starts no window.
	if len(ws.starts) != 3 || ws.n != 2500 || ws.busy <= 0 {
		t.Fatalf("starts %d, records %d, busy %v", len(ws.starts), ws.n, ws.busy)
	}
}
