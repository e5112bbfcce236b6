package xrpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/trace"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// Lane is one peer's request/response exchange within a dispatch wave. The
// network cost model charges overlapped lanes the per-wave maximum instead
// of the serial sum.
type Lane struct {
	Peer          string
	BytesSent     int64
	BytesReceived int64
	RemoteExecNS  int64
	// DeserNS is the client-side time spent shredding this lane's response
	// (the per-lane share of Metrics.DeserializeNS).
	DeserNS int64
	// Chunks, when non-empty, records the streamed arrival of the response
	// frame by frame; gather-whole exchanges leave it nil.
	Chunks []ChunkStat
	// Fault-tolerance provenance, filled by replica-aware dispatch under a
	// RetryPolicy; zero values mean the first attempt on the primary target
	// answered. Peer above is always the peer that produced the winning
	// response; Target is the lane's original scatter target when the two
	// can differ (replica dispatch).
	Target string
	// Replica is the index of the winning peer in the lane's target
	// rotation (0 = the primary).
	Replica int
	// Retries counts fault-triggered re-issues of the exchange.
	Retries int
	// Hedges counts hedge-timer-triggered speculative attempts.
	Hedges int
	// WastedNS is the wall time burned in attempts that did not win.
	WastedNS int64
}

// Metrics accumulates per-exchange measurements used by the benchmark
// harness to reproduce the paper's bandwidth and time-breakdown figures.
type Metrics struct {
	mu            sync.Mutex
	Requests      int64
	BytesSent     int64
	BytesReceived int64
	SerializeNS   int64 // client-side marshal time
	DeserializeNS int64 // client-side shred time
	RemoteExecNS  int64 // as reported by the server
	ServerSerdeNS int64 // server-side (de)serialization, as reported
	RoundTripWall int64 // wall time of Transport.RoundTrip
	// PeakBufferedItems is the high-water mark of result items buffered at
	// once on a server while producing responses — one frame's worth under
	// incremental streaming, the whole result under gather or eager
	// streaming. Unlike the counters it combines by maximum, being a peak.
	PeakBufferedItems int64
	// Waves records the dispatch structure for overlap-aware network
	// accounting: each entry is one wave of exchanges that were in flight
	// together. A sequential call appends a single-lane wave; a scatter
	// dispatch appends one wave with a lane per destination peer.
	Waves [][]Lane
	// WaveCount counts the dispatch waves recorded: AddWave increments it
	// with every wave it appends, and Add folds it in without the waves
	// themselves, so an aggregate across queries keeps the count in O(1)
	// space instead of every query's lane structure.
	WaveCount int64
}

// Add accumulates another metrics snapshot: its counters, peak and wave
// count — not its Waves, which describe one query's dispatch and would grow
// a long-lived aggregate without bound. The source is read under its own
// lock — most callers pass fresh locals, but nothing stops a shared
// accumulator from being added into another while it is still being written
// (the session-aggregate path does exactly that), and reading its fields
// bare would tear under the race detector.
func (m *Metrics) Add(o *Metrics) {
	if m == nil || o == nil || m == o {
		return
	}
	o.mu.Lock()
	snap := o.totals(nil)
	o.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Requests += snap.Requests
	m.BytesSent += snap.BytesSent
	m.BytesReceived += snap.BytesReceived
	m.SerializeNS += snap.SerializeNS
	m.DeserializeNS += snap.DeserializeNS
	m.RemoteExecNS += snap.RemoteExecNS
	m.ServerSerdeNS += snap.ServerSerdeNS
	m.RoundTripWall += snap.RoundTripWall
	if snap.PeakBufferedItems > m.PeakBufferedItems {
		m.PeakBufferedItems = snap.PeakBufferedItems
	}
	m.WaveCount += snap.WaveCount
}

// AddWave records one dispatch wave of overlapped exchanges.
func (m *Metrics) AddWave(lanes []Lane) {
	if m == nil || len(lanes) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Waves = append(m.Waves, append([]Lane(nil), lanes...))
	m.WaveCount++
}

// Reset zeroes the counters. It must not replace the struct wholesale: that
// would clobber the held mutex and panic the deferred unlock.
func (m *Metrics) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Requests = 0
	m.BytesSent = 0
	m.BytesReceived = 0
	m.SerializeNS = 0
	m.DeserializeNS = 0
	m.RemoteExecNS = 0
	m.ServerSerdeNS = 0
	m.RoundTripWall = 0
	m.PeakBufferedItems = 0
	m.Waves = nil
	m.WaveCount = 0
}

// Snapshot returns a copy for reading, Waves deep-copied.
func (m *Metrics) Snapshot() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	var waves [][]Lane
	for _, w := range m.Waves {
		waves = append(waves, append([]Lane(nil), w...))
	}
	return m.totals(waves)
}

// totals copies every field but Waves, which it sets to waves; the caller
// holds m.mu.
func (m *Metrics) totals(waves [][]Lane) Metrics {
	return Metrics{
		Requests: m.Requests, BytesSent: m.BytesSent, BytesReceived: m.BytesReceived,
		SerializeNS: m.SerializeNS, DeserializeNS: m.DeserializeNS,
		RemoteExecNS: m.RemoteExecNS, ServerSerdeNS: m.ServerSerdeNS,
		RoundTripWall: m.RoundTripWall, PeakBufferedItems: m.PeakBufferedItems,
		Waves: waves, WaveCount: m.WaveCount,
	}
}

// DefaultMaxConcurrent bounds the per-wave worker pool of dispatch when
// Client.MaxConcurrent is zero.
const DefaultMaxConcurrent = 8

// Client executes XRPCExprs remotely over a Transport. It implements
// eval.RemoteCaller: every dispatch — a single call, a Bulk RPC, a scatter
// wave — is one Bulk RPC per batch, run through a bounded worker pool and
// delivered as per-lane result increments. A Client is safe for concurrent
// use when its Transport is.
type Client struct {
	Transport Transport
	Semantics Semantics
	Static    eval.StaticContext
	// Relatives carries the §VI-B relative projection paths per decomposed
	// XRPCExpr; the planner fills it for pass-by-projection.
	Relatives map[*xq.XRPCExpr]projection.RelativePaths
	// ProjOpts tunes message projection (schema-aware knobs).
	ProjOpts projection.Options
	// Metrics, when non-nil, accumulates exchange measurements.
	Metrics *Metrics
	// MaxConcurrent bounds the number of in-flight per-peer Bulk RPCs of one
	// dispatch wave; zero means DefaultMaxConcurrent.
	MaxConcurrent int
	// Streamed selects the streaming wire: lanes travel over StreamTransport
	// (when the Transport provides it) as chunk frames decoded while the
	// peer still produces them, instead of one gather-whole Response
	// message. Results are identical either way.
	Streamed bool
	// BufferChunks bounds each lane's decoded-chunk buffer; zero means
	// DefaultBufferChunks.
	BufferChunks int
	// Context, when non-nil, is the base context of every dispatch:
	// cancelling it aborts in-flight exchanges (through a ContextTransport
	// or StreamTransport) and releases queued pool workers.
	Context context.Context
	// Retry, when non-nil, makes per-lane dispatch fault-tolerant: a failed
	// exchange is re-issued to the lane's next replica (ScatterBatch.Replicas)
	// and a slow one is hedged after Retry.HedgeAfter. A nil policy with
	// replicas present still fails over on faults (see RetryPolicy).
	Retry *RetryPolicy
	// Health, when non-nil, observes every exchange's latency and faults and
	// makes hedging adaptive: once a peer has enough fresh samples, the hedge
	// trigger is its observed P90 instead of the static Retry.HedgeAfter, and
	// replica spreading (Retry.SpreadReplicas) ranks lanes' initial targets
	// by health instead of blind rotation.
	Health *HealthTracker
	// Reroute, when non-nil, is the epoch-aware re-dispatch hook: given a
	// lane's plan-time target it returns the current rotation (live primary
	// first, then replicas) of the shard that target owned at plan time, or
	// nil when the topology has not moved past the plan's epoch. Dispatch
	// consults it after a genuine fault and extends the lane's rotation with
	// the unseen peers, so a lane whose primary departed mid-query follows
	// its shard to the new layout instead of exhausting retries against a
	// corpse. Sessions over a live topology install it (peer.Network).
	Reroute func(target string) []string
	// Trace, when active, is the span every dispatch records under: scatter
	// spans, per-lane spans, and per-attempt spans (winner/loser tagged) hang
	// off it, attempt identity travels on the wire, and remote server-side
	// spans are grafted back in. The zero value disables tracing at the cost
	// of a nil check per span site.
	Trace trace.SpanRef

	// laneSeq numbers dispatched lanes for replica-spread rotation.
	laneSeq atomic.Uint64
}

// observe feeds the health tracker one exchange outcome. Cancellation and
// deadline teardowns are not the peer's fault and are dropped — only a
// genuine failure extends a fault streak.
func (c *Client) observe(peer string, wallNS int64, err error) {
	if c.Health == nil {
		return
	}
	if err == nil {
		c.Health.Observe(peer, time.Duration(wallNS))
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrDeadlineExceeded) {
		return
	}
	c.Health.ObserveFault(peer)
}

// hedgeDelay resolves the hedge trigger for an attempt to peer: the health
// tracker's observed P90 when it has enough fresh samples, else the static
// policy value.
func (c *Client) hedgeDelay(peer string) time.Duration {
	if c.Health != nil {
		if d, ok := c.Health.HedgeAfter(peer); ok {
			return d
		}
	}
	return c.Retry.hedgeAfter()
}

// baseContext returns the dispatch base context.
func (c *Client) baseContext() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

var _ eval.RemoteCaller = (*Client)(nil)

// laneSpan opens the span one lane records under.
func laneSpan(parent trace.SpanRef, target string) trace.SpanRef {
	return parent.Child("lane", trace.Str("target", target))
}

// finishLane closes a lane span with its fault-tolerance provenance: the
// winning peer and replica index, retry/hedge counts, and the wall time
// burned by losing attempts.
func finishLane(sp trace.SpanRef, lane Lane, err error) {
	if !sp.Active() {
		return
	}
	if err == nil {
		sp.Set(trace.Str("winner-peer", lane.Peer),
			trace.Int("replica", int64(lane.Replica)),
			trace.Int("retries", int64(lane.Retries)),
			trace.Int("hedges", int64(lane.Hedges)),
			trace.Int("wasted_ns", lane.WastedNS))
	}
	sp.EndErr(err)
}

// Dispatch implements eval.RemoteCaller: one Bulk RPC per batch, run by
// runLane under the RetryPolicy, each lane yielding its results over a
// bounded channel as they arrive — per frame on the streaming wire, per
// iteration once the whole response is in on the gather wire.
//
// The pool admits lanes strictly in batch order — lane i starts once lane
// i-width has finished — so the consumer, which drains lanes in batch order
// too, is always waiting on an admitted lane: a lane blocked on its full
// buffer can never starve the one being consumed.
//
// The first lane to fail cancels the wave: exchanges in flight over a
// cancellation-aware transport are torn down instead of dragging out a
// query that is going to fail anyway, and queued lanes never dispatch.
// Lanes killed that way report context.Canceled — the evaluator reports the
// genuine failure, never the echo. Every chunk, a lane's error included,
// reaches its channel unless the consumer has called cancel.
//
// Successful lanes are recorded as metrics waves no wider than the pool
// once every lane has finished, before the last channel closes. The
// returned cancel function aborts every in-flight lane (producers blocked
// on a full buffer included); the consumer must call it.
func (c *Client) Dispatch(x *xq.XRPCExpr, batches []eval.ScatterBatch) ([]<-chan eval.StreamChunk, func()) {
	buf := c.BufferChunks
	if buf <= 0 {
		buf = DefaultBufferChunks
	}
	width := c.MaxConcurrent
	if width <= 0 {
		width = DefaultMaxConcurrent
	}
	base := c.baseContext()
	ctx, cancelWave := context.WithCancel(base)
	gone := make(chan struct{})
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			close(gone)
			cancelWave()
		})
	}
	chans := make([]chan eval.StreamChunk, len(batches))
	out := make([]<-chan eval.StreamChunk, len(batches))
	done := make([]chan struct{}, len(batches))
	for i := range chans {
		chans[i] = make(chan eval.StreamChunk, buf)
		out[i] = chans[i]
		done[i] = make(chan struct{})
	}
	lanes := make([]Lane, len(batches))
	failed := make([]bool, len(batches))
	// A wave of one lane — a single call or Bulk RPC — needs no span of its
	// own: its lane span hangs straight off the dispatch span.
	wsp := c.Trace
	if len(batches) > 1 {
		if c.Streamed {
			wsp = c.Trace.Child("scatter", trace.Int("lanes", int64(len(batches))), trace.Bool("streamed", true))
		} else {
			wsp = c.Trace.Child("scatter", trace.Int("lanes", int64(len(batches))))
		}
	}
	var remaining atomic.Int64
	remaining.Store(int64(len(batches)))
	for i := range batches {
		go func(i int) {
			// Defers run in reverse order: the last lane to finish records
			// the metrics waves and closes the wave span, then closes its
			// channel — so by the time the consumer has drained every lane,
			// the waves are visible and the span tree is complete.
			defer close(chans[i])
			defer func() {
				if remaining.Add(-1) != 0 {
					return
				}
				var ok []Lane
				for j := range lanes {
					if !failed[j] {
						ok = append(ok, lanes[j])
					}
				}
				// Waves no wider than the pool: only width exchanges were
				// ever in flight together, and the overlap model must not
				// pretend otherwise.
				for len(ok) > 0 {
					n := min(width, len(ok))
					c.Metrics.AddWave(ok[:n])
					ok = ok[n:]
				}
				if len(batches) > 1 {
					wsp.End()
				}
			}()
			defer close(done[i])
			send := func(chunk eval.StreamChunk) bool {
				select {
				case chans[i] <- chunk:
					return true
				case <-gone:
					return false
				}
			}
			// A lane admitted straight away always dispatches unless the
			// caller's context has ended, so lanes over transports without
			// cancellation support keep deterministic outcomes and metrics;
			// a queued lane does not start once the wave is cancelled.
			err := base.Err()
			if i >= width {
				select {
				case <-done[i-width]:
				case <-ctx.Done():
				}
				err = ctx.Err()
			}
			if err != nil {
				// Never dispatched: a blown budget must surface in type, not
				// as a bare context error.
				err = budgetFailure(ctx, err, batches[i].Target, time.Now())
			} else {
				lsp := laneSpan(wsp, batches[i].Target)
				lanes[i], err = c.runLane(ctx, x, batches[i], send, lsp)
				finishLane(lsp, lanes[i], err)
			}
			if err != nil {
				failed[i] = true
				cancelWave()
				send(eval.StreamChunk{Err: err})
			}
		}(i)
	}
	return out, cancel
}

// marshalCall builds and serializes the request message of one Bulk RPC.
// When ctx carries a deadline, the remaining budget is stamped into the
// request (relative nanoseconds, see Request.BudgetNS); an already-spent
// budget fails the attempt before any bytes move. sp, when active, stamps
// the attempt's trace identity into the request so the server records and
// returns its own spans.
func (c *Client) marshalCall(ctx context.Context, target string, x *xq.XRPCExpr, iterations [][]xdm.Sequence, sp trace.SpanRef) (data []byte, serNS int64, err error) {
	if x.Module == "" {
		return nil, 0, fmt.Errorf("xrpc: execute-at expression %q has no rendered module; "+
			"compile its query (xq.RenderModules) before dispatch", x.FuncName)
	}
	req := &Request{
		Method:    x.FuncName,
		Arity:     len(x.Params),
		Semantics: c.Semantics,
		Module:    x.Module,
		Static:    c.Static,
		Calls:     iterations,
	}
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		if remaining <= 0 {
			return nil, 0, &DeadlineError{Peer: target}
		}
		req.BudgetNS = remaining.Nanoseconds()
	}
	if sp.Active() {
		req.TraceID = uint64(sp.TraceID())
		req.TraceSpan = uint64(sp.SpanID())
	}
	var paramU, paramR []projection.PathSet
	if c.Semantics == ByProjection {
		rel, ok := c.Relatives[x]
		if ok {
			paramU, paramR = rel.ParamUsed, rel.ParamReturned
			req.ResultUsed = rel.ResultUsed
			req.ResultReturned = rel.ResultReturn
		} else {
			// Without an analysis the safe fallback keeps parameter values
			// whole (self is returned) and the response unprojected.
			for range x.Params {
				paramU = append(paramU, nil)
				paramR = append(paramR, nil)
			}
			req.ResultReturned = projection.PathSet{}.Add(projection.Path{})
		}
	}
	t0 := time.Now()
	data, err = MarshalRequest(req, paramU, paramR, c.ProjOpts)
	if err != nil {
		return nil, 0, err
	}
	return data, time.Since(t0).Nanoseconds(), nil
}

// roundTrip performs a gather-whole exchange, honoring ctx through a
// ContextTransport when the transport provides one. A plain Transport
// ignores cancellation: its exchanges cannot block on a network, so
// letting them finish keeps per-lane outcomes deterministic.
func roundTrip(ctx context.Context, t Transport, peer string, request []byte) ([]byte, error) {
	if ct, ok := t.(ContextTransport); ok {
		return ct.RoundTripContext(ctx, peer, request)
	}
	return t.RoundTrip(peer, request)
}

// exchange performs one attempt's Bulk RPC to target, delivering result
// increments through deliver and accounting the exchange in Metrics. On the
// streaming wire it is streamExchange; otherwise one gather-whole Response,
// delivered as one increment per iteration once it has arrived. onFrame,
// when non-nil, is invoked as each response frame reaches the originator —
// the liveness signal the lane runner's hedge timer watches; a gather-whole
// response is a single frame.
func (c *Client) exchange(ctx context.Context, target string, x *xq.XRPCExpr, iterations [][]xdm.Sequence, deliver deliverFunc, onFrame func(), sp trace.SpanRef) (Lane, error) {
	if stx, ok := c.Transport.(StreamTransport); ok && c.Streamed {
		return c.streamExchange(ctx, stx, target, x, iterations, deliver, onFrame, sp)
	}
	data, serNS, err := c.marshalCall(ctx, target, x, iterations, sp)
	if err != nil {
		return Lane{}, err
	}
	t1 := time.Now()
	respData, err := roundTrip(ctx, c.Transport, target, data)
	wallNS := time.Since(t1).Nanoseconds()
	if err != nil {
		c.observe(target, wallNS, err)
		return Lane{}, err
	}
	if onFrame != nil {
		onFrame()
	}
	t2 := time.Now()
	resp, err := ParseResponse(respData)
	if err != nil {
		// A faulting server still reports the spans of the work it did before
		// failing; graft them in so failed attempts have server-side detail.
		var f *Fault
		if errors.As(err, &f) && len(f.Spans) > 0 {
			sp.IngestRemote(f.Spans)
		}
		c.observe(target, wallNS, err)
		return Lane{}, err
	}
	c.observe(target, wallNS, nil)
	sp.IngestRemote(resp.Spans)
	deserNS := time.Since(t2).Nanoseconds()
	if len(resp.Results) != len(iterations) {
		return Lane{}, fmt.Errorf("xrpc: response carries %d results for %d calls",
			len(resp.Results), len(iterations))
	}
	lane := Lane{
		Peer:          target,
		BytesSent:     int64(len(data)),
		BytesReceived: int64(len(respData)),
		RemoteExecNS:  resp.ExecNanos,
		DeserNS:       deserNS,
	}
	if c.Metrics != nil {
		c.Metrics.Add(&Metrics{
			Requests:      1,
			BytesSent:     int64(len(data)),
			BytesReceived: int64(len(respData)),
			SerializeNS:   serNS,
			DeserializeNS: deserNS,
			RemoteExecNS:  resp.ExecNanos,
			ServerSerdeNS: resp.SerializeNanos,
			RoundTripWall: wallNS,
		})
	}
	for i, res := range resp.Results {
		if !deliver(eval.StreamChunk{Iteration: i, Items: res}) {
			return Lane{}, context.Canceled
		}
	}
	return lane, nil
}
