package xrpc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// wireRetry builds a client engine with a retry policy and a replica map
// over the in-memory transport.
func wireRetry(peers map[string]*Server, pol *RetryPolicy, replicas map[string][]string) (*eval.Engine, *Client, *InMemoryTransport) {
	tr := NewInMemoryTransport()
	for name, srv := range peers {
		tr.Register(name, srv)
	}
	cl := &Client{
		Transport: tr,
		Semantics: ByValue,
		Static:    eval.DefaultStatic(),
		Relatives: map[*xq.XRPCExpr]projection.RelativePaths{},
		Metrics:   &Metrics{},
		Retry:     pol,
	}
	eng := eval.NewEngine(nil)
	eng.Remote = cl
	eng.Replicas = replicas
	return eng, cl, tr
}

const echoScatter = `
declare function f($x as xs:string) as item()* { $x };
for $p in ("p1", "p2", "p3") return execute at {$p} { f($p) }`

// TestScatterFailoverToReplica: a dead primary's lane completes via its
// replica, the result is identical to the healthy run, and the winning
// lane's provenance records the failover.
func TestScatterFailoverToReplica(t *testing.T) {
	peers := map[string]*Server{"p1": newPeer(nil), "p3": newPeer(nil), "r2": newPeer(nil)}
	// p2 is never registered: its lane must fail over to r2.
	eng, cl, _ := wireRetry(peers, nil, map[string][]string{"p2": {"r2"}})
	res, err := eng.QueryString(echoScatter)
	if err != nil {
		t.Fatal(err)
	}
	// The shipped body echoes its parameter, which is the loop's target
	// string — so the gathered result proves loop order survived failover.
	if got := serialize(res); got != "p1 p2 p3" {
		t.Fatalf("result = %q, want loop-ordered p1 p2 p3", got)
	}
	s := cl.Metrics.Snapshot()
	var failedOver *Lane
	for _, w := range s.Waves {
		for i := range w {
			if w[i].Target == "p2" {
				failedOver = &w[i]
			}
		}
	}
	if failedOver == nil {
		t.Fatal("no lane recorded for target p2")
	}
	if failedOver.Peer != "r2" || failedOver.Replica != 1 || failedOver.Retries != 1 || failedOver.Hedges != 0 {
		t.Errorf("lane provenance = %+v, want winner r2 / replica 1 / 1 retry / 0 hedges", failedOver)
	}
}

// flakyServer fails its first n exchanges, then behaves.
type flakyServer struct {
	*Server
	failures atomic.Int64
}

func (f *flakyServer) Handle(request []byte) ([]byte, error) {
	if f.failures.Add(-1) >= 0 {
		return nil, errors.New("injected transient failure")
	}
	return f.Server.Handle(request)
}

// TestRetrySameTarget: with MaxAttempts > 1 and no replicas, a transient
// fault on a sequential Bulk RPC is retried against the same peer.
func TestRetrySameTarget(t *testing.T) {
	fl := &flakyServer{Server: newPeer(nil)}
	fl.failures.Store(1)
	eng, cl, _ := wireRetry(map[string]*Server{"p": fl.Server}, &RetryPolicy{MaxAttempts: 2}, nil)
	cl.Transport.(*InMemoryTransport).Register("p", fl)
	res, err := eng.QueryString(`
	declare function f() as item()* { "ok" };
	let $r := execute at {"p"} { f() } return $r`)
	if err != nil {
		t.Fatal(err)
	}
	if serialize(res) != "ok" {
		t.Fatalf("result = %q, want ok", serialize(res))
	}
	s := cl.Metrics.Snapshot()
	if len(s.Waves) != 1 || len(s.Waves[0]) != 1 {
		t.Fatalf("waves = %+v, want one single-lane wave", s.Waves)
	}
	lane := s.Waves[0][0]
	if lane.Retries != 1 || lane.Replica != 0 || lane.Peer != "p" {
		t.Errorf("lane = %+v, want one same-target retry", lane)
	}
}

// slowTransport delays exchanges to selected peers, honoring cancellation —
// the injected-straggler harness for hedging tests.
type slowTransport struct {
	inner     *InMemoryTransport
	delay     map[string]time.Duration
	cancelled atomic.Int64
}

func (s *slowTransport) wait(ctx context.Context, peer string) error {
	if d := s.delay[peer]; d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			s.cancelled.Add(1)
			return ctx.Err()
		}
	}
	return nil
}

func (s *slowTransport) RoundTrip(peer string, req []byte) ([]byte, error) {
	return s.RoundTripContext(context.Background(), peer, req)
}

func (s *slowTransport) RoundTripContext(ctx context.Context, peer string, req []byte) ([]byte, error) {
	if err := s.wait(ctx, peer); err != nil {
		return nil, err
	}
	return s.inner.RoundTrip(peer, req)
}

func (s *slowTransport) RoundTripStream(ctx context.Context, peer string, req []byte, sink func([]byte) error) error {
	if err := s.wait(ctx, peer); err != nil {
		return err
	}
	return s.inner.RoundTripStream(ctx, peer, req, sink)
}

// TestHedgeRaceReplicaWins: a straggling primary is hedged after HedgeAfter
// and the replica's response wins; the straggler is cancelled and the lane
// records the hedge and its wasted time.
func TestHedgeRaceReplicaWins(t *testing.T) {
	peers := map[string]*Server{"p1": newPeer(nil), "r1": newPeer(nil)}
	eng, cl, tr := wireRetry(peers, &RetryPolicy{MaxAttempts: 2, HedgeAfter: 5 * time.Millisecond},
		map[string][]string{"p1": {"r1"}})
	slow := &slowTransport{inner: tr, delay: map[string]time.Duration{"p1": 2 * time.Second}}
	cl.Transport = slow
	t0 := time.Now()
	res, err := eng.QueryString(`
	declare function f($x as xs:string) as item()* { $x };
	for $p in ("p1") return execute at {$p} { f($p) }`)
	if err != nil {
		t.Fatal(err)
	}
	if serialize(res) != "p1" {
		t.Fatalf("result = %q, want p1", serialize(res))
	}
	if wall := time.Since(t0); wall > time.Second {
		t.Fatalf("query took %v — the hedge did not cut the straggler short", wall)
	}
	s := cl.Metrics.Snapshot()
	if len(s.Waves) != 1 || len(s.Waves[0]) != 1 {
		t.Fatalf("waves = %+v, want one single-lane wave", s.Waves)
	}
	lane := s.Waves[0][0]
	if lane.Peer != "r1" || lane.Replica != 1 || lane.Hedges != 1 || lane.Retries != 0 {
		t.Errorf("lane = %+v, want hedged winner r1", lane)
	}
	if lane.WastedNS <= 0 {
		t.Errorf("lane.WastedNS = %d, want > 0 (the losing straggler burned time)", lane.WastedNS)
	}
	// The winner returns without waiting for the loser to unwind; give the
	// cancelled straggler a moment to observe its torn-down context.
	for deadline := time.Now().Add(2 * time.Second); slow.cancelled.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("straggling attempt was never cancelled")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExhaustedReplicasReportOriginalFault: when the primary and every
// replica fail, the lane error is the original fault, never a cancellation
// echo of the retry machinery tearing attempts down.
func TestExhaustedReplicasReportOriginalFault(t *testing.T) {
	// Neither "dead" nor its replica exist; "up" answers.
	eng, _, _ := wireRetry(map[string]*Server{"up": newPeer(nil)}, nil,
		map[string][]string{"dead": {"alsodead"}})
	_, err := eng.QueryString(`
	declare function f($x as xs:string) as item()* { $x };
	for $p in ("up", "dead") return execute at {$p} { f($p) }`)
	if err == nil {
		t.Fatal("query succeeded with every replica dead")
	}
	if errors.Is(err, context.Canceled) || strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("error = %v, a cancellation echo instead of the original fault", err)
	}
	if !strings.Contains(err.Error(), `unknown peer "dead"`) {
		t.Fatalf("error = %v, want the original unknown-peer fault of the primary", err)
	}
}

// failAfterFrames streams n frames of each exchange, then dies — the
// mid-stream kill-peer injection.
type failAfterFrames struct {
	*Server
	frames int
}

func (f *failAfterFrames) HandleStream(request []byte, emit func([]byte) error) error {
	n := 0
	return f.Server.HandleStream(request, func(frame []byte) error {
		if n >= f.frames {
			return errors.New("injected: peer died mid-stream")
		}
		n++
		return emit(frame)
	})
}

// streamedScatterResult runs a streamed two-peer scatter over the given
// transport-registered servers and returns the serialized result and lanes.
func runStreamedScatter(t *testing.T, eng *eval.Engine, src string) string {
	t.Helper()
	res, err := eng.QueryString(src)
	if err != nil {
		t.Fatal(err)
	}
	return serialize(res)
}

// TestStreamedFailoverMidStream: a peer that dies after emitting part of its
// chunked stream fails over to its replica; the replayed prefix is
// suppressed, so the gathered result is byte-identical to the healthy run.
func TestStreamedFailoverMidStream(t *testing.T) {
	docs := mapResolver{"xmk.xml": "<r><a>1</a><a>2</a><a>3</a><a>4</a><a>5</a></r>"}
	src := `
	declare function f() as item()* { doc("xmk.xml")/child::r/child::a };
	for $p in ("p1", "p2") return execute at {$p} { f() }`

	mkEngine := func(pol *RetryPolicy, install func(tr *InMemoryTransport)) (*eval.Engine, *Client) {
		tr := NewInMemoryTransport()
		// One item per chunk so several frames flow before the injected death.
		tr.Register("p1", &Server{Engine: eval.NewEngine(docs), ChunkItems: 1})
		tr.Register("p2", &Server{Engine: eval.NewEngine(docs), ChunkItems: 1})
		if install != nil {
			install(tr)
		}
		cl := &Client{Transport: tr, Semantics: ByValue, Static: eval.DefaultStatic(),
			Relatives: map[*xq.XRPCExpr]projection.RelativePaths{}, Metrics: &Metrics{}, Retry: pol}
		cl.Streamed = true
		eng := eval.NewEngine(nil)
		eng.Remote = cl
		return eng, cl
	}

	healthyEng, _ := mkEngine(nil, nil)
	want := runStreamedScatter(t, healthyEng, src)

	for _, dieAfter := range []int{0, 1, 2, 3} {
		eng, cl := mkEngine(&RetryPolicy{}, func(tr *InMemoryTransport) {
			tr.Register("p2", &failAfterFrames{
				Server: &Server{Engine: eval.NewEngine(docs), ChunkItems: 1}, frames: dieAfter})
		})
		eng.Replicas = map[string][]string{"p2": {"r2"}}
		cl.Transport.(*InMemoryTransport).Register("r2", &Server{Engine: eval.NewEngine(docs), ChunkItems: 2})
		got := runStreamedScatter(t, eng, src)
		if got != want {
			t.Fatalf("die-after-%d-frames: result %q != healthy %q", dieAfter, got, want)
		}
		s := cl.Metrics.Snapshot()
		var lane *Lane
		for _, w := range s.Waves {
			for i := range w {
				if w[i].Target == "p2" {
					lane = &w[i]
				}
			}
		}
		if lane == nil || lane.Peer != "r2" || lane.Retries != 1 {
			t.Fatalf("die-after-%d-frames: lane = %+v, want one retry won by r2", dieAfter, lane)
		}
	}
}

// TestStreamedStallSwitches: a streamed lane whose first frame never arrives
// within HedgeAfter is cancelled and re-issued to the replica.
func TestStreamedStallSwitches(t *testing.T) {
	docs := mapResolver{"d.xml": "<r><a>1</a><a>2</a></r>"}
	tr := NewInMemoryTransport()
	tr.Register("p1", &Server{Engine: eval.NewEngine(docs), ChunkItems: 1})
	tr.Register("r1", &Server{Engine: eval.NewEngine(docs), ChunkItems: 1})
	slow := &slowTransport{inner: tr, delay: map[string]time.Duration{"p1": 2 * time.Second}}
	cl := &Client{Transport: slow, Semantics: ByValue, Static: eval.DefaultStatic(),
		Relatives: map[*xq.XRPCExpr]projection.RelativePaths{}, Metrics: &Metrics{},
		Retry: &RetryPolicy{MaxAttempts: 2, HedgeAfter: 5 * time.Millisecond}}
	cl.Streamed = true
	eng := eval.NewEngine(nil)
	eng.Remote = cl
	eng.Replicas = map[string][]string{"p1": {"r1"}}
	t0 := time.Now()
	got := runStreamedScatter(t, eng, `
	declare function f() as item()* { doc("d.xml")/child::r/child::a };
	for $p in ("p1") return execute at {$p} { f() }`)
	if got != "<a>1</a> <a>2</a>" {
		t.Fatalf("result = %q", got)
	}
	if wall := time.Since(t0); wall > time.Second {
		t.Fatalf("query took %v — the stalled stream was not switched away from", wall)
	}
	s := cl.Metrics.Snapshot()
	if len(s.Waves) != 1 || len(s.Waves[0]) != 1 {
		t.Fatalf("waves = %+v, want one single-lane wave", s.Waves)
	}
	lane := s.Waves[0][0]
	if lane.Peer != "r1" || lane.Hedges != 1 {
		t.Errorf("lane = %+v, want stall-hedged winner r1", lane)
	}
	if slow.cancelled.Load() == 0 {
		t.Error("stalled stream attempt was never cancelled")
	}
}

// TestReplayFilterSuppressesPrefix exercises the replay arithmetic directly,
// with the replacement stream chunking its calls differently from the
// original: only the suffix beyond the failover point may reach the
// consumer, empty calls included.
func TestReplayFilterSuppressesPrefix(t *testing.T) {
	mk := func(vals ...string) xdm.Sequence {
		var s xdm.Sequence
		for _, v := range vals {
			s = append(s, xdm.NewString(v))
		}
		return s
	}
	var got []string
	deliver := func(chunk eval.StreamChunk) bool {
		got = append(got, fmt.Sprintf("%d:%s", chunk.Iteration, serialize(chunk.Items)))
		return true
	}
	p := &laneProgress{}
	// Attempt 1 delivers call 0 = [a b c] as two chunks plus the start of
	// call 1, then dies.
	f1 := replayFilter(p, deliver)
	f1(eval.StreamChunk{Iteration: 0, Items: mk("a", "b")})
	f1(eval.StreamChunk{Iteration: 0, Items: mk("c")})
	f1(eval.StreamChunk{Iteration: 1, Items: mk("d")})
	// Attempt 2 replays from the start with coarser chunks; only e (the rest
	// of call 1), the empty call 2 and call 3 are new.
	f2 := replayFilter(p, deliver)
	f2(eval.StreamChunk{Iteration: 0, Items: mk("a", "b", "c")})
	f2(eval.StreamChunk{Iteration: 1, Items: mk("d", "e")})
	f2(eval.StreamChunk{Iteration: 2, Items: nil})
	f2(eval.StreamChunk{Iteration: 3, Items: mk("f")})
	want := []string{"0:a b", "0:c", "1:d", "1:e", "2:", "3:f"}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

// interlockTransport makes a stalled primary start streaming only once the
// hedge's stream is under way, and holds the hedge after its first frame
// until the primary has delivered one too — so both attempts of the lane
// feed the shared replay filter concurrently.
type interlockTransport struct {
	inner                       *InMemoryTransport
	primary, hedge              string
	hedgeStarted, primaryActive chan struct{}
}

func (t *interlockTransport) RoundTrip(peer string, req []byte) ([]byte, error) {
	return t.inner.RoundTrip(peer, req)
}

func (t *interlockTransport) RoundTripStream(ctx context.Context, peer string, req []byte, sink func([]byte) error) error {
	frames := 0
	wait := func(ch chan struct{}) error {
		select {
		case <-ch:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if peer == t.primary {
		if err := wait(t.hedgeStarted); err != nil {
			return err
		}
	}
	return t.inner.RoundTripStream(ctx, peer, req, func(frame []byte) error {
		if peer == t.hedge && frames == 1 {
			if err := wait(t.primaryActive); err != nil {
				return err
			}
		}
		if err := sink(frame); err != nil {
			return err
		}
		if frames == 0 {
			if peer == t.primary {
				close(t.primaryActive)
			} else {
				close(t.hedgeStarted)
			}
		}
		frames++
		return nil
	})
}

// TestStreamedHedgeRacesLateStartingPrimary: a streamed lane's primary
// stalls past HedgeAfter and starts streaming only after the hedge has;
// both attempts then deliver concurrently, chunked differently, through the
// lane's shared replay filter. The gathered result must be byte-identical
// to the healthy run — no item duplicated, none skipped.
func TestStreamedHedgeRacesLateStartingPrimary(t *testing.T) {
	const items = 50
	var doc, want strings.Builder
	doc.WriteString("<r>")
	for i := 1; i <= items; i++ {
		fmt.Fprintf(&doc, "<a>%d</a>", i)
		if i > 1 {
			want.WriteString(" ")
		}
		fmt.Fprintf(&want, "<a>%d</a>", i)
	}
	doc.WriteString("</r>")
	docs := mapResolver{"d.xml": doc.String()}
	src := `
	declare function f() as item()* { doc("d.xml")/child::r/child::a };
	for $p in ("p1") return execute at {$p} { f() }`

	for round := 0; round < 20; round++ {
		mem := NewInMemoryTransport()
		mem.Register("p1", &Server{Engine: eval.NewEngine(docs), ChunkItems: 3})
		mem.Register("r1", &Server{Engine: eval.NewEngine(docs), ChunkItems: 7})
		tr := &interlockTransport{inner: mem, primary: "p1", hedge: "r1",
			hedgeStarted: make(chan struct{}), primaryActive: make(chan struct{})}
		cl := &Client{Transport: tr, Semantics: ByValue, Static: eval.DefaultStatic(),
			Relatives: map[*xq.XRPCExpr]projection.RelativePaths{}, Metrics: &Metrics{},
			Retry: &RetryPolicy{MaxAttempts: 2, HedgeAfter: 5 * time.Millisecond}, Streamed: true}
		eng := eval.NewEngine(nil)
		eng.Remote = cl
		eng.Replicas = map[string][]string{"p1": {"r1"}}
		if got := runStreamedScatter(t, eng, src); got != want.String() {
			t.Fatalf("round %d: result %q, want %q", round, got, want.String())
		}
		select {
		case <-tr.primaryActive:
		default:
			t.Fatalf("round %d: the primary never streamed — the attempts did not race", round)
		}
		s := cl.Metrics.Snapshot()
		if len(s.Waves) != 1 || len(s.Waves[0]) != 1 || s.Waves[0][0].Hedges != 1 {
			t.Fatalf("round %d: waves = %+v, want one hedged lane", round, s.Waves)
		}
	}
}
