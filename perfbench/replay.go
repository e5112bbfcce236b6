package main

import (
	"fmt"
	"runtime"
	"time"

	"distxq/internal/core"
	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/xdm"
	"distxq/internal/xq"
	"distxq/internal/xrpc"
)

// prepared is a captured exchange decoded once, untimed, so each replayed
// layer gets exactly the input the program handed it.
type prepared struct {
	x       *exchange
	srv     *xrpc.Server
	req     *xrpc.Request
	module  *xq.Query
	static  *eval.StaticContext
	results []xdm.Sequence
}

// msgReplay holds replayed per-round sums over every captured exchange.
type msgReplay struct {
	queries, requests                                         int
	printNS, reqMarshalNS, shredNS, moduleParseNS, evalNS     float64
	respMarshalNS, respParseNS, respParseAllocs, serverAllocs float64
}

// responsePaths mirrors the server's choice of response projection paths.
func responsePaths(req *xrpc.Request) (used, returned projection.PathSet) {
	if req.Semantics != xrpc.ByProjection {
		return nil, nil
	}
	used, returned = req.ResultUsed, req.ResultReturned
	if len(returned) == 0 && len(used) == 0 {
		returned = projection.PathSet{}.Add(projection.Path{})
	}
	return used, returned
}

// replayMessages replays the captured exchanges through each layer's public
// entry point, single-threaded, and returns the per-round sums.
func replayMessages(f *fixture, caught []*exchange, queries int) (msgReplay, error) {
	r := msgReplay{queries: queries, requests: len(caught)}
	if len(caught) == 0 || queries == 0 {
		return r, fmt.Errorf("no exchange was captured")
	}
	ps := make([]*prepared, len(caught))
	for i, x := range caught {
		p := &prepared{x: x, srv: f.servers[x.peer]}
		var err error
		if p.req, err = xrpc.ParseRequest(x.request); err != nil {
			return r, err
		}
		if p.module, err = xq.ParseQuery(p.req.Module + "\n0"); err != nil {
			return r, err
		}
		if p.req.Static != (eval.StaticContext{}) {
			p.static = &p.req.Static
		}
		for _, params := range p.req.Calls {
			res, err := p.srv.Engine.EvalFunctionDeadline(p.module, p.req.Method, params, p.static, time.Time{})
			if err != nil {
				return r, err
			}
			p.results = append(p.results, res)
		}
		ps[i] = p
	}
	each := func(fn func(p *prepared) error) func() error {
		return func() error {
			for _, p := range ps {
				if err := fn(p); err != nil {
					return err
				}
			}
			return nil
		}
	}
	var err error
	if r.printNS, _, err = timeRounds(each(func(p *prepared) error {
		for _, fd := range p.module.Funcs {
			_ = xq.PrintFuncDecl(fd)
		}
		return nil
	})); err != nil {
		return r, err
	}
	if r.reqMarshalNS, _, err = timeRounds(each(func(p *prepared) error {
		var used, returned []projection.PathSet
		if p.req.Semantics == xrpc.ByProjection {
			// The parsed parameters are already projected; marshal them whole.
			used = make([]projection.PathSet, p.req.Arity)
			returned = make([]projection.PathSet, p.req.Arity)
		}
		_, err := xrpc.MarshalRequest(p.req, used, returned, projection.Options{})
		return err
	})); err != nil {
		return r, err
	}
	if r.shredNS, _, err = timeRounds(each(func(p *prepared) error {
		_, err := xrpc.ParseRequest(p.x.request)
		return err
	})); err != nil {
		return r, err
	}
	if r.moduleParseNS, _, err = timeRounds(each(func(p *prepared) error {
		_, err := xq.ParseQuery(p.req.Module + "\n0")
		return err
	})); err != nil {
		return r, err
	}
	if r.evalNS, _, err = timeRounds(each(func(p *prepared) error {
		for _, params := range p.req.Calls {
			if _, err := p.srv.Engine.EvalFunctionDeadline(p.module, p.req.Method, params, p.static, time.Time{}); err != nil {
				return err
			}
		}
		return nil
	})); err != nil {
		return r, err
	}
	if r.respMarshalNS, _, err = timeRounds(each(func(p *prepared) error {
		used, returned := responsePaths(p.req)
		_, err := xrpc.MarshalResponse(&xrpc.Response{Semantics: p.req.Semantics, Results: p.results}, used, returned, p.srv.ProjOpts)
		return err
	})); err != nil {
		return r, err
	}
	if r.respParseNS, r.respParseAllocs, err = timeRounds(each(func(p *prepared) error {
		if !p.x.streamed {
			_, err := xrpc.ParseResponse(p.x.response)
			return err
		}
		for _, fr := range p.x.frames {
			if _, err := xrpc.ParseResponseChunk(fr); err != nil {
				return err
			}
		}
		return nil
	})); err != nil {
		return r, err
	}
	if _, r.serverAllocs, err = timeRounds(each(func(p *prepared) error {
		if !p.x.streamed {
			_, err := p.srv.Handle(p.x.request)
			return err
		}
		return p.srv.HandleStream(p.x.request, func([]byte) error { return nil })
	})); err != nil {
		return r, err
	}
	return r, nil
}

// timeRounds runs round repeatedly for about replayBudget (at least 3 times)
// and returns its mean wall time and allocation count per round.
func timeRounds(round func() error) (ns, allocs float64, err error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	n := 0
	for n < 3 || time.Since(t0) < replayBudget {
		if err := round(); err != nil {
			return 0, 0, err
		}
		n++
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(ms1.Mallocs-ms0.Mallocs) / float64(n), nil
}

// planReplay holds per-query plan-layer costs, averaged over query texts.
type planReplay struct {
	parseNS, decomposeNS, normalizeNS, compileNS float64
	parseAllocs, planAllocs, compileAllocs       float64
}

// planBatch is how many fresh inputs each plan stage is timed on per round:
// Decompose rewrites its query in place and a compiled artifact pins to its
// query, so every call needs an input of its own, prepared untimed.
const planBatch = 8

// replayPlan times each plan stage on the workload's query texts, on input
// prepared by the stages before it, as Service.plan runs them.
func replayPlan(f *fixture) (planReplay, error) {
	var p planReplay
	opts := core.DefaultOptions()
	opts.Shards = f.shards
	if len(f.shards) > 0 {
		opts.KnownPeers = f.net.PeerNames()
	}
	// stage prepares planBatch inputs up to the given depth.
	stage := func(depth int) ([]*core.Plan, error) {
		out := make([]*core.Plan, 0, planBatch*len(f.texts))
		for _, src := range f.texts {
			for k := 0; k < planBatch; k++ {
				q, err := xq.ParseQuery(src)
				if err != nil {
					return nil, err
				}
				plan := &core.Plan{Query: q}
				if depth >= 1 {
					if plan, err = core.Decompose(q, f.strategy, opts); err != nil {
						return nil, err
					}
				}
				if depth >= 2 {
					if err := xq.Normalize(plan.Query); err != nil {
						return nil, err
					}
				}
				out = append(out, plan)
			}
		}
		return out, nil
	}
	timeStage := func(depth int, run func(*core.Plan) error) (ns, allocs float64, err error) {
		var inputs []*core.Plan
		var total, totalAllocs float64
		rounds := 0
		t0 := time.Now()
		for rounds < 3 || time.Since(t0) < replayBudget {
			if inputs, err = stage(depth); err != nil {
				return 0, 0, err
			}
			ns, allocs, err := once(func() error {
				for _, in := range inputs {
					if err := run(in); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return 0, 0, err
			}
			total += ns
			totalAllocs += allocs
			rounds++
		}
		per := float64(rounds * len(inputs))
		return total / per, totalAllocs / per, nil
	}
	var err error
	// Service.plan parses every query and prints it back as the plan-cache
	// key before it looks the plan up, hit or miss.
	if p.parseNS, p.parseAllocs, err = timeRounds(func() error {
		for _, src := range f.texts {
			q, err := xq.ParseQuery(src)
			if err != nil {
				return err
			}
			_ = xq.PrintQuery(q)
		}
		return nil
	}); err != nil {
		return p, err
	}
	n := float64(len(f.texts))
	p.parseNS /= n
	p.parseAllocs /= n
	var decAllocs, normAllocs float64
	if p.decomposeNS, decAllocs, err = timeStage(0, func(pl *core.Plan) error {
		_, err := core.Decompose(pl.Query, f.strategy, opts)
		return err
	}); err != nil {
		return p, err
	}
	if p.normalizeNS, normAllocs, err = timeStage(1, func(pl *core.Plan) error {
		return xq.Normalize(pl.Query)
	}); err != nil {
		return p, err
	}
	p.planAllocs = decAllocs + normAllocs
	if p.compileNS, p.compileAllocs, err = timeStage(2, func(pl *core.Plan) error {
		_, err := eval.CompileQuery(pl.Query)
		return err
	}); err != nil {
		return p, err
	}
	return p, nil
}

// once runs fn a single time and returns its wall time and allocations.
func once(fn func() error) (ns, allocs float64, err error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	err = fn()
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	return float64(elapsed.Nanoseconds()), float64(ms1.Mallocs - ms0.Mallocs), err
}
