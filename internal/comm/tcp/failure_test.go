package tcpcomm

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pclouds/internal/comm"
	"pclouds/internal/costmodel"
	"pclouds/internal/wire"
)

// dialGroupCfg brings up a full TCP group in-process with per-test config
// overrides applied on top of the defaults.
func dialGroupCfg(t *testing.T, p int, mod func(r int, cfg *Config)) []*Comm {
	t.Helper()
	addrs := freeAddrs(t, p)
	comms := make([]*Comm, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := Config{Rank: r, Addrs: addrs, Params: costmodel.Zero(), DialTimeout: 10 * time.Second}
			if mod != nil {
				mod(r, &cfg)
			}
			comms[r], errs[r] = Dial(cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d dial: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, c := range comms {
			if c != nil {
				c.Close()
			}
		}
	})
	return comms
}

// TestCloseWakesBlockedRecv is the regression test that a local Close wakes
// a Recv blocked on a live peer promptly, with an error wrapping ErrClosed
// (not a PeerDown: no peer failed, the local process chose to stop).
func TestCloseWakesBlockedRecv(t *testing.T) {
	comms := dialGroup(t, 2)
	done := make(chan error, 1)
	go func() {
		_, err := comms[0].Recv(1, comm.TagUser)
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the Recv block
	comms[0].Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
		if _, ok := comm.AsPeerDown(err); ok {
			t.Fatalf("local Close must not report a peer down: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv still blocked 5s after Close")
	}
}

// TestHelloReadDeadline: a rogue client that connects but never sends its
// hello must fail mesh setup within HelloTimeout instead of wedging it.
func TestHelloReadDeadline(t *testing.T) {
	addrs := freeAddrs(t, 2)
	done := make(chan error, 1)
	go func() {
		// Rank 1 accepts one connection from rank 0.
		_, err := Dial(Config{Rank: 1, Addrs: addrs, Params: costmodel.Zero(),
			DialTimeout: 5 * time.Second, HelloTimeout: 300 * time.Millisecond})
		done <- err
	}()
	// Connect to rank 1's listener but stay silent.
	var conn net.Conn
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.Dial("tcp", addrs[1])
		if err == nil {
			conn = c
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not reach listener: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer conn.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("silent hello should fail Dial")
		}
		if !strings.Contains(err.Error(), "hello") {
			t.Fatalf("error should name the hello exchange: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Dial wedged on a silent hello")
	}
}

// TestRemoteDeathDetected: when a peer's process goes away (its connection
// closes), every blocked Recv on it fails promptly with a PeerDown naming
// the dead rank.
func TestRemoteDeathDetected(t *testing.T) {
	comms := dialGroup(t, 3)
	done := make(chan error, 2)
	for _, r := range []int{0, 1} {
		go func(r int) {
			_, err := comms[r].Recv(2, comm.TagUser)
			done <- err
		}(r)
	}
	time.Sleep(100 * time.Millisecond)
	comms[2].Close() // rank 2 "dies"
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			pd, ok := comm.AsPeerDown(err)
			if !ok {
				t.Fatalf("want PeerDown, got %v", err)
			}
			if pd.Rank != 2 {
				t.Fatalf("PeerDown attributes rank %d, want 2 (%v)", pd.Rank, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Recv still blocked 5s after remote death")
		}
	}
}

// TestSilentPeerDetected: a peer that is connected but sends neither data
// nor heartbeats trips PeerTimeout and surfaces as PeerDown with the
// silence named as cause.
func TestSilentPeerDetected(t *testing.T) {
	comms := dialGroupCfg(t, 2, func(r int, cfg *Config) {
		cfg.PeerTimeout = 400 * time.Millisecond
		if r == 1 {
			cfg.HeartbeatInterval = -1 // rank 1 is alive but mute
		} else {
			cfg.HeartbeatInterval = 100 * time.Millisecond
		}
	})
	start := time.Now()
	_, err := comms[0].Recv(1, comm.TagUser)
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("detection took %v, want ~PeerTimeout", elapsed)
	}
	pd, ok := comm.AsPeerDown(err)
	if !ok {
		t.Fatalf("want PeerDown, got %v", err)
	}
	if pd.Rank != 1 || !strings.Contains(pd.Cause, "silent") {
		t.Fatalf("unexpected attribution: %+v", pd)
	}
	if s := comms[0].Stats(); s.PeerDowns != 1 {
		t.Fatalf("PeerDowns stat = %d, want 1", s.PeerDowns)
	}
}

// TestHeartbeatsPreventFalsePositive: a Recv blocked far longer than
// PeerTimeout must still succeed when the peer's heartbeats keep arriving —
// slowness is not death.
func TestHeartbeatsPreventFalsePositive(t *testing.T) {
	comms := dialGroupCfg(t, 2, func(r int, cfg *Config) {
		cfg.PeerTimeout = 250 * time.Millisecond
		cfg.HeartbeatInterval = 50 * time.Millisecond
	})
	go func() {
		time.Sleep(time.Second) // 4x PeerTimeout of pure heartbeat traffic
		comms[1].Send(0, comm.TagUser, []byte("late"))
	}()
	b, err := comms[0].Recv(1, comm.TagUser)
	if err != nil {
		t.Fatalf("live-but-slow peer misdetected: %v", err)
	}
	if string(b) != "late" {
		t.Fatalf("payload %q", b)
	}
	if s := comms[0].Stats(); s.HeartbeatsRecv == 0 {
		t.Fatal("expected heartbeats to have arrived")
	}
}

// TestRecvTimeoutCatchesWedgedPeer: with RecvTimeout set, a peer that stays
// alive (heartbeating) but never delivers the awaited frame is declared
// down with the receive deadline as cause.
func TestRecvTimeoutCatchesWedgedPeer(t *testing.T) {
	comms := dialGroupCfg(t, 2, func(r int, cfg *Config) {
		cfg.HeartbeatInterval = 50 * time.Millisecond
		cfg.RecvTimeout = 400 * time.Millisecond
	})
	start := time.Now()
	_, err := comms[0].Recv(1, comm.TagUser)
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("detection took %v, want ~RecvTimeout", elapsed)
	}
	pd, ok := comm.AsPeerDown(err)
	if !ok {
		t.Fatalf("want PeerDown, got %v", err)
	}
	if pd.Rank != 1 || !strings.Contains(pd.Cause, "receive deadline") {
		t.Fatalf("unexpected attribution: %+v", pd)
	}
}

// TestQueuedFramesDrainBeforeFailure: frames that arrived before the peer
// died are still delivered; only then does the failure surface.
func TestQueuedFramesDrainBeforeFailure(t *testing.T) {
	comms := dialGroup(t, 2)
	if err := comms[1].Send(0, comm.TagUser, []byte("pre-death")); err != nil {
		t.Fatal(err)
	}
	// Wait for the frame to land in rank 0's queue, then kill rank 1.
	waitUntil(t, func() bool {
		pe := comms[0].peers[1]
		pe.mu.Lock()
		defer pe.mu.Unlock()
		return len(pe.queues[int32(comm.TagUser)]) > 0
	})
	comms[1].Close()
	b, err := comms[0].Recv(1, comm.TagUser)
	if err != nil {
		t.Fatalf("queued frame lost to failure: %v", err)
	}
	if string(b) != "pre-death" {
		t.Fatalf("payload %q", b)
	}
	if _, err := comms[0].Recv(1, comm.TagUser); err == nil {
		t.Fatal("drained queue should surface the failure")
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSendRetriesTransient: a send failure marked transient (nothing was
// written to the wire) is retried with backoff and counted; the message is
// ultimately delivered.
func TestSendRetriesTransient(t *testing.T) {
	comms := dialGroup(t, 2)
	var mu sync.Mutex
	fails := 2
	comms[0].sendFault = func(to int) error {
		mu.Lock()
		defer mu.Unlock()
		if fails > 0 {
			fails--
			return comm.MarkTransient(fmt.Errorf("injected transient send fault"))
		}
		return nil
	}
	if err := comms[0].Send(1, comm.TagUser, []byte("eventually")); err != nil {
		t.Fatalf("transient faults should be retried: %v", err)
	}
	b, err := comms[1].Recv(0, comm.TagUser)
	if err != nil || string(b) != "eventually" {
		t.Fatalf("recv after retries: %q, %v", b, err)
	}
	if s := comms[0].Stats(); s.SendRetries != 2 {
		t.Fatalf("SendRetries = %d, want 2", s.SendRetries)
	}
}

// TestSendPermanentFailureNotRetried: an unmarked error surfaces on the
// first attempt — retrying a possibly part-written frame would
// desynchronise the stream.
func TestSendPermanentFailureNotRetried(t *testing.T) {
	comms := dialGroup(t, 2)
	calls := 0
	comms[0].sendFault = func(to int) error {
		calls++
		return fmt.Errorf("injected permanent send fault")
	}
	if err := comms[0].Send(1, comm.TagUser, []byte("x")); err == nil {
		t.Fatal("permanent fault should surface")
	}
	if calls != 1 {
		t.Fatalf("permanent fault attempted %d times, want 1", calls)
	}
	if s := comms[0].Stats(); s.SendRetries != 0 {
		t.Fatalf("SendRetries = %d, want 0", s.SendRetries)
	}
}

// TestSendRetriesExhausted: a fault that never clears consumes the retry
// budget and then surfaces.
func TestSendRetriesExhausted(t *testing.T) {
	comms := dialGroupCfg(t, 2, func(r int, cfg *Config) {
		cfg.SendRetries = 2
		cfg.SendBackoff = time.Millisecond
	})
	calls := 0
	comms[0].sendFault = func(to int) error {
		calls++
		return comm.MarkTransient(fmt.Errorf("injected persistent fault"))
	}
	if err := comms[0].Send(1, comm.TagUser, []byte("x")); err == nil {
		t.Fatal("exhausted retries should surface")
	}
	if calls != 3 { // initial attempt + 2 retries
		t.Fatalf("attempted %d times, want 3", calls)
	}
}

// TestHeartbeatsExcludedFromTraffic: heartbeats are control frames and must
// never leak into the message/byte counters the parity tests compare
// against the channel transport.
func TestHeartbeatsExcludedFromTraffic(t *testing.T) {
	comms := dialGroupCfg(t, 2, func(r int, cfg *Config) {
		cfg.HeartbeatInterval = 20 * time.Millisecond
	})
	time.Sleep(300 * time.Millisecond)
	for r, c := range comms {
		s := c.Stats()
		if s.HeartbeatsSent == 0 {
			t.Fatalf("rank %d: no heartbeats sent", r)
		}
		if s.MsgsSent != 0 || s.BytesSent != 0 || s.MsgsRecv != 0 {
			t.Fatalf("rank %d: heartbeats leaked into traffic stats: %+v", r, s)
		}
	}
}

// TestConcurrentPeerFailuresDoNotDeadlock: several peers declared down at
// once must not deadlock in the failure gossip. Each fail holds its own
// peer's mutex while the gossip runs once for the communicator; the gossip
// therefore must not wait on any other peer's mutex. The peers sit on
// in-memory pipes whose far ends are drained, so only lock order can
// block.
func TestConcurrentPeerFailuresDoNotDeadlock(t *testing.T) {
	const p = 4
	for iter := 0; iter < 300; iter++ {
		c := &Comm{cfg: Config{Rank: 0, Addrs: make([]string, p)}, peers: make([]*peer, p)}
		for r := 1; r < p; r++ {
			near, far := net.Pipe()
			go io.Copy(io.Discard, far)
			c.peers[r] = c.newPeer(r, near, wire.NewConn(near))
		}
		done := make(chan struct{})
		var wg sync.WaitGroup
		for r := 1; r < p; r++ {
			wg.Add(1)
			go func(pe *peer) {
				defer wg.Done()
				pe.fail(&comm.PeerDown{Rank: pe.rank, Cause: "test"})
			}(c.peers[r])
		}
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: concurrent peer failures deadlocked", iter)
		}
	}
}

// TestOrderlyCloseKeepsLastFrames: a rank that sends its last frame and
// closes loses none of it to gossip. Rank 0 sends a large frame to rank 2
// and closes at once; rank 1 observes the close and reports it while rank
// 2 is still reading the frame. Rank 2 must receive it intact rather than
// drop the connection on rank 1's report.
func TestOrderlyCloseKeepsLastFrames(t *testing.T) {
	for iter := 0; iter < 5; iter++ {
		comms := dialGroup(t, 3)
		payload := make([]byte, 32<<20)
		payload[len(payload)-1] = 7
		if err := comms[0].Send(2, comm.TagUser, payload); err != nil {
			t.Fatal(err)
		}
		comms[0].Close()
		if _, err := comms[1].Recv(0, comm.TagUser); err == nil {
			t.Fatal("Recv from a closed rank succeeded")
		}
		got, err := comms[2].Recv(0, comm.TagUser)
		if err != nil {
			t.Fatalf("iteration %d: rank 2 lost rank 0's last frame: %v", iter, err)
		}
		if len(got) != len(payload) || got[len(got)-1] != 7 {
			t.Fatalf("iteration %d: frame mangled (%d bytes)", iter, len(got))
		}
		// Past the last frame, rank 2 sees rank 0's close itself.
		_, err = comms[2].Recv(0, comm.TagUser)
		if pd, ok := comm.AsPeerDown(err); !ok || pd.Rank != 0 {
			t.Fatalf("iteration %d: Recv past rank 0's close: %v, want PeerDown naming rank 0", iter, err)
		}
	}
}

// TestCloseUnblocksStalledSend: Close returns promptly while a Send is
// blocked toward a peer that never reads, and that Send fails. Close cuts
// the connections without first waiting for any send to finish.
func TestCloseUnblocksStalledSend(t *testing.T) {
	near, far := net.Pipe() // synchronous: a write blocks until read
	defer far.Close()
	c := &Comm{cfg: Config{Rank: 0, Addrs: make([]string, 2)}, peers: make([]*peer, 2), quit: make(chan struct{})}
	c.peers[1] = c.newPeer(1, near, wire.NewConn(near))
	sent := make(chan error, 1)
	go func() { sent <- c.Send(1, comm.TagUser, make([]byte, 1<<20)) }()
	time.Sleep(50 * time.Millisecond) // let the Send block in its write
	closed := make(chan struct{})
	go func() { c.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung behind a stalled Send")
	}
	select {
	case err := <-sent:
		if err == nil {
			t.Fatal("stalled Send succeeded after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled Send still blocked after Close")
	}
}
