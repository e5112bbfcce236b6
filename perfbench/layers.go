package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"distxq/internal/trace"
	"distxq/internal/xrpc"
)

// The traced run measures every layer from outside the program: a timing
// xrpc.Handler stands in front of each peer's server, a timing Transport is
// routed in for each peer, the benchmark records one span per query, lane
// request and server handle, and the messages of the first captureQueries
// queries are replayed single-threaded through each module's public
// functions. The traced window runs one client, so every lane and handle
// span has exactly one query to belong to.

const (
	// captureQueries is how many queries' messages are kept for replay.
	captureQueries = 32
	// exportQueries is how many queries' spans go into the Chrome trace.
	exportQueries = 200
	// replayBudget bounds the time spent replaying each layer.
	replayBudget = 150 * time.Millisecond
)

// layerMetric names one per-layer figure, what it should move, and how it
// is measured. Times and counts are per query unless the name says
// otherwise; plan-layer figures are amortized over the queries that take
// the plan-cache miss path.
type layerMetric struct {
	name, unit, moves, how string
}

var layerMetrics = []layerMetric{
	{"service.plan_hit_ratio", "ratio", "latency_p50_ms, cpu_ms_per_query", "Service.Stats PlanHits/(PlanHits+PlanMisses) over the traced window"},
	{"xq.parse_us", "us", "latency_p50_ms", "xq.ParseQuery then xq.PrintQuery (the plan-cache key) on the workload's query texts; Service.plan runs both on every query, hit or miss"},
	{"core.decompose_us", "us", "latency_p50_ms", "core.Decompose with the workload's shard options, times the plan-miss share"},
	{"xq.normalize_us", "us", "latency_p50_ms", "xq.Normalize of the decomposed plan, times the plan-miss share"},
	{"eval.compile_us", "us", "latency_p50_ms once compile is the default", "eval.CompileQuery of the normalized plan, times the plan-miss share"},
	{"eval.compile_allocs", "count", "allocs_per_query once compile is the default", "allocations of eval.CompileQuery, times the plan-miss share"},
	{"plan.allocs_per_query", "count", "allocs_per_query", "allocations of parse and cache-key print, plus decompose and normalize times the plan-miss share"},
	{"xrpc.requests_per_query", "count", "transfer_kb_per_query, sim_network_ms", "peer.Report.Requests"},
	{"xrpc.request_bytes_per_query", "B", "transfer_kb_per_query", "request bytes seen by the timing handlers"},
	{"xrpc.response_bytes_per_query", "B", "transfer_kb_per_query", "response bytes (all frames) leaving the timing handlers"},
	{"xq.module_print_us", "us", "cpu_ms_per_query", "replay xq.PrintFuncDecl of each shipped function"},
	{"xrpc.request_marshal_us", "us", "cpu_ms_per_query", "replay xrpc.MarshalRequest of each parsed captured request"},
	{"xrpc.transport_us", "us", "latency_p50_ms", "round trip at the timing Transport minus time in the timing handler"},
	{"xrpc.stream_frames_per_query", "count", "latency_p50_ms", "peer.Report.StreamedChunks"},
	{"xrpc.server_handle_us", "us", "latency_p50_ms", "time in Server.Handle/HandleStream at the timing handler"},
	{"xrpc.server_allocs_per_request", "count", "allocs_per_query", "replay Server.Handle/HandleStream of a captured request alone"},
	{"xrpc.request_shred_us", "us", "cpu_ms_per_query", "replay xrpc.ParseRequest"},
	{"xq.module_parse_us", "us", "cpu_ms_per_query, allocs_per_query", `replay xq.ParseQuery(req.Module + "\n0") as Server.prepare does`},
	{"eval.remote_eval_us", "us", "latency_p50_ms", "replay Engine.EvalFunctionDeadline on every call of the parsed request"},
	{"xrpc.response_marshal_us", "us", "cpu_ms_per_query", "replay xrpc.MarshalResponse with the request's projection paths"},
	{"xrpc.response_parse_us", "us", "cpu_ms_per_query", "replay xrpc.ParseResponse, or ParseResponseChunk per frame"},
	{"xrpc.response_parse_allocs", "count", "allocs_per_query", "allocations of the response parse replay"},
	{"eval.local_exec_us", "us", "latency_p50_ms", "peer.Report.LocalExecNS"},
	{"runtime.gc_cycles_per_query", "count", "cpu_ms_per_query", "runtime.MemStats.NumGC delta over the untraced window"},
	{"runtime.gc_cpu_frac", "ratio", "cpu_ms_per_query", "runtime/metrics /cpu/classes/gc/total:cpu-seconds over process CPU, untraced window"},
	{"peer.wave_parallelism", "count", "sim_network_ms", "peer.Report.Parallelism"},
	{"xrpc.retries_per_query", "count", "error_rate", "peer.Report.Retries + Hedges (no retry policy is installed)"},
	{"service.latency_p50_ms", "ms", "-", "median per-slice p50 of Service.Query over the untraced windows, one client"},
	{"service.cpu_ms_per_query", "ms", "-", "median per-slice process CPU per query over the untraced windows, one client"},
	{"trace.overhead_p50_frac", "ratio", "-", "traced over untraced median slice p50, minus 1, both one client"},
	{"trace.overhead_cpu_frac", "ratio", "-", "traced over untraced median slice CPU per query, minus 1, both one client"},
}

// exchange is one captured request and its response.
type exchange struct {
	peer     string
	streamed bool
	request  []byte
	response []byte   // gather-whole
	frames   [][]byte // streamed
}

// recorder is the traced run's collector, shared by the wrappers.
type recorder struct {
	anchor time.Time

	mu      sync.Mutex
	root    trace.SpanRef            // the current query's root span
	lanes   map[string]trace.SpanRef // in-flight lane span per peer
	capture bool
	caught  []*exchange

	laneNS, handleNS, reqBytes, respBytes atomic.Int64
}

func (r *recorder) laneStart(peer string) trace.SpanRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := r.root.Child("lane", trace.Str("peer", peer))
	r.lanes[peer] = sp
	return sp
}

func (r *recorder) laneEnd(peer string, sp trace.SpanRef, d time.Duration, err error) {
	sp.EndErr(err)
	r.laneNS.Add(d.Nanoseconds())
	r.mu.Lock()
	delete(r.lanes, peer)
	r.mu.Unlock()
}

// handleStart opens the handle span under the peer's in-flight lane and, in
// capture mode, starts recording the exchange.
func (r *recorder) handleStart(peer string, request []byte, streamed bool) (trace.SpanRef, *exchange) {
	r.reqBytes.Add(int64(len(request)))
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := r.lanes[peer].Child("handle", trace.Str("peer", peer))
	var x *exchange
	if r.capture {
		x = &exchange{peer: peer, streamed: streamed, request: append([]byte(nil), request...)}
		r.caught = append(r.caught, x)
	}
	return sp, x
}

// timingTransport is routed in front of each peer's original transport.
type timingTransport struct {
	inner xrpc.Transport
	rec   *recorder
}

func (t *timingTransport) RoundTrip(peer string, request []byte) ([]byte, error) {
	return t.RoundTripContext(context.Background(), peer, request)
}

func (t *timingTransport) RoundTripContext(ctx context.Context, peer string, request []byte) ([]byte, error) {
	sp := t.rec.laneStart(peer)
	t0 := time.Now()
	var resp []byte
	var err error
	if ct, ok := t.inner.(xrpc.ContextTransport); ok {
		resp, err = ct.RoundTripContext(ctx, peer, request)
	} else {
		resp, err = t.inner.RoundTrip(peer, request)
	}
	t.rec.laneEnd(peer, sp, time.Since(t0), err)
	return resp, err
}

func (t *timingTransport) RoundTripStream(ctx context.Context, peer string, request []byte, sink func([]byte) error) error {
	st, ok := t.inner.(xrpc.StreamTransport)
	if !ok {
		return fmt.Errorf("perfbench: transport of %s does not stream", peer)
	}
	sp := t.rec.laneStart(peer)
	t0 := time.Now()
	var inSink time.Duration
	err := st.RoundTripStream(ctx, peer, request, func(frame []byte) error {
		s0 := time.Now()
		err := sink(frame)
		inSink += time.Since(s0)
		return err
	})
	// Time the client spent consuming frames, including waiting for the
	// loop-order consumer to reach this lane, is not the transport's.
	t.rec.laneEnd(peer, sp, time.Since(t0)-inSink, err)
	return err
}

// timingHandler stands in front of one peer's XRPC server.
type timingHandler struct {
	srv  *xrpc.Server
	peer string
	rec  *recorder
}

func (h *timingHandler) Handle(request []byte) ([]byte, error) {
	sp, x := h.rec.handleStart(h.peer, request, false)
	t0 := time.Now()
	resp, err := h.srv.Handle(request)
	h.rec.handleNS.Add(time.Since(t0).Nanoseconds())
	sp.EndErr(err)
	h.rec.respBytes.Add(int64(len(resp)))
	if x != nil {
		x.response = append([]byte(nil), resp...)
	}
	return resp, err
}

func (h *timingHandler) HandleStream(request []byte, emit func([]byte) error) error {
	sp, x := h.rec.handleStart(h.peer, request, true)
	t0 := time.Now()
	err := h.srv.HandleStream(request, func(frame []byte) error {
		h.rec.respBytes.Add(int64(len(frame)))
		if x != nil {
			x.frames = append(x.frames, append([]byte(nil), frame...))
		}
		return emit(frame)
	})
	h.rec.handleNS.Add(time.Since(t0).Nanoseconds())
	sp.EndErr(err)
	return err
}

// uninstrument puts every peer's own server and transport back in place.
func uninstrument(f *fixture) {
	for _, name := range f.peers {
		if ep, ok := f.endpoints[name]; ok {
			ep.serve(f.servers[name])
		} else {
			f.net.Transport.Register(name, f.servers[name])
		}
		f.net.RouteExternal(name, f.inner[name])
	}
}

// instrument installs the wrappers on every peer of f.
func instrument(f *fixture, rec *recorder) {
	for _, name := range f.peers {
		h := &timingHandler{srv: f.servers[name], peer: name, rec: rec}
		if ep, ok := f.endpoints[name]; ok {
			ep.serve(h)
		} else {
			f.net.Transport.Register(name, h)
		}
		f.net.RouteExternal(name, &timingTransport{inner: f.inner[name], rec: rec})
	}
}

// overheadRounds is how many untraced and traced windows the traced run
// alternates, so drift over the run (the heap grows while a service runs)
// falls on both sides of the tracing-overhead comparison alike.
const overheadRounds = 4

func layers(f *fixture, wl workload, seed uint64, dur time.Duration, out string) (result, error) {
	res := result{Metrics: map[string]metric{}}
	if err := warmUp(f, wl, 1); err != nil {
		return res, err
	}
	rec := &recorder{anchor: time.Now(), lanes: map[string]trace.SpanRef{}}
	var exported []*trace.Trace
	var tracedQueries int64
	hooks := &loopHooks{
		before: func(i int64) {
			tr := trace.NewAt(0, "perfbench", rec.anchor)
			rec.mu.Lock()
			rec.root = tr.Start(0, "query", trace.Int("seq", i))
			rec.capture = tracedQueries < captureQueries
			rec.mu.Unlock()
		},
		after: func(i int64) {
			rec.mu.Lock()
			root := rec.root
			rec.capture = false
			rec.mu.Unlock()
			root.End()
			if tracedQueries < exportQueries {
				exported = append(exported, root.Trace())
			}
			tracedQueries++
		},
	}
	var plain, traced window
	slot := dur / (2 * overheadRounds)
	host0 := readHostCPU()
	for k := 0; k < overheadRounds; k++ {
		uninstrument(f)
		plain.add(runQueries(f, 1, slot, 0, nil))
		instrument(f, rec)
		traced.add(runQueries(f, 1, slot, 0, hooks))
	}
	uninstrument(f)
	traced.steal = stealShare(host0, readHostCPU())
	captured := int(min(tracedQueries, captureQueries))
	reportHost(traced)

	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed + traced.failed
	res.Correct = res.Failed == 0 && traced.completed > 0
	if traced.completed == 0 {
		return res, fmt.Errorf("traced window completed no query: %s", traced.firstErr)
	}
	m := res.Metrics
	units := map[string]string{}
	for _, lm := range layerMetrics {
		units[lm.name] = lm.unit
	}
	set := func(name string, v float64) { m[name] = metric{v, units[name]} }
	us := func(ns float64) float64 { return ns / 1e3 }

	hits, misses := float64(traced.planHits), float64(traced.planMisses)
	missFrac := misses / (hits + misses)
	set("service.plan_hit_ratio", hits/(hits+misses))
	pl, err := replayPlan(f)
	if err != nil {
		return res, err
	}
	set("xq.parse_us", us(pl.parseNS))
	set("core.decompose_us", us(pl.decomposeNS)*missFrac)
	set("xq.normalize_us", us(pl.normalizeNS)*missFrac)
	set("eval.compile_us", us(pl.compileNS)*missFrac)
	set("eval.compile_allocs", pl.compileAllocs*missFrac)
	set("plan.allocs_per_query", pl.parseAllocs+pl.planAllocs*missFrac)

	set("xrpc.requests_per_query", traced.perQuery(float64(traced.requests)))
	set("xrpc.request_bytes_per_query", traced.perQuery(float64(rec.reqBytes.Load())))
	set("xrpc.response_bytes_per_query", traced.perQuery(float64(rec.respBytes.Load())))
	set("xrpc.transport_us", us(traced.perQuery(float64(rec.laneNS.Load()-rec.handleNS.Load()))))
	set("xrpc.stream_frames_per_query", traced.perQuery(float64(traced.chunks)))
	set("xrpc.server_handle_us", us(traced.perQuery(float64(rec.handleNS.Load()))))
	set("eval.local_exec_us", us(traced.perQuery(float64(traced.localNS))))
	set("peer.wave_parallelism", traced.perQuery(float64(traced.parallelism)))
	set("xrpc.retries_per_query", traced.perQuery(float64(traced.retries)))
	set("runtime.gc_cycles_per_query", plain.perQuery(float64(plain.numGC)))
	set("runtime.gc_cpu_frac", plain.gcCPU/plain.cpu.Seconds())
	set("service.latency_p50_ms", median(plain.sliceP50MS))
	set("service.cpu_ms_per_query", median(plain.sliceCPUMS))
	set("trace.overhead_p50_frac", median(traced.sliceP50MS)/median(plain.sliceP50MS)-1)
	set("trace.overhead_cpu_frac", median(traced.sliceCPUMS)/median(plain.sliceCPUMS)-1)

	rp, err := replayMessages(f, rec.caught, captured)
	if err != nil {
		return res, err
	}
	perQ := func(v float64) float64 { return v / float64(rp.queries) }
	set("xq.module_print_us", us(perQ(rp.printNS)))
	set("xrpc.request_marshal_us", us(perQ(rp.reqMarshalNS)))
	set("xrpc.request_shred_us", us(perQ(rp.shredNS)))
	set("xq.module_parse_us", us(perQ(rp.moduleParseNS)))
	set("eval.remote_eval_us", us(perQ(rp.evalNS)))
	set("xrpc.response_marshal_us", us(perQ(rp.respMarshalNS)))
	set("xrpc.response_parse_us", us(perQ(rp.respParseNS)))
	set("xrpc.response_parse_allocs", perQ(rp.respParseAllocs))
	set("xrpc.server_allocs_per_request", rp.serverAllocs/float64(rp.requests))

	printMetrics(m)
	if err := writeArtifacts(out, wl.name, seed, m, exported); err != nil {
		return res, err
	}
	return res, nil
}

// mergeTraces concatenates per-query traces that share one anchor into a
// single recorded trace, renumbering span IDs so they stay unique.
func mergeTraces(parts []*trace.Trace) *trace.Recorded {
	out := &trace.Recorded{Peer: "perfbench"}
	var base trace.SpanID
	for _, t := range parts {
		rec := t.Snapshot()
		for _, sp := range rec.Spans {
			sp.ID += base
			if sp.Parent != 0 {
				sp.Parent += base
			}
			out.Spans = append(out.Spans, sp)
		}
		base += trace.SpanID(len(rec.Spans))
		out.OpenSpans += rec.OpenSpans
		out.DurationNS = max(out.DurationNS, rec.DurationNS)
	}
	return out
}

// writeArtifacts writes the Chrome trace of the exported queries and the
// per-layer table beside each other in dir.
func writeArtifacts(dir, workload string, seed uint64, m map[string]metric, exported []*trace.Trace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	chrome, err := trace.ChromeTraceJSON(mergeTraces(exported))
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".trace.json", chrome, 0o644); err != nil {
		return err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "# per-layer ledger: %s, seed %d (per query unless named per_request)\n", workload, seed)
	fmt.Fprintf(&sb, "%-32s %14s %-6s %-44s %s\n", "metric", "value", "unit", "should move", "measured by")
	for _, lm := range layerMetrics {
		fmt.Fprintf(&sb, "%-32s %14.4f %-6s %-44s %s\n", lm.name, m[lm.name].Value, lm.unit, lm.moves, lm.how)
	}
	if err := os.WriteFile(stem+".layers.txt", []byte(sb.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("artifacts: %s.trace.json (%d queries), %s.layers.txt\n", stem, len(exported), stem)
	return nil
}
