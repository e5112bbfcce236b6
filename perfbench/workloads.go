package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"

	"distxq/internal/core"
	"distxq/internal/eval"
	"distxq/internal/peer"
	"distxq/internal/service"
	"distxq/internal/xdm"
	"distxq/internal/xmark"
	"distxq/internal/xrpc"
)

// workload describes one traffic mix: how to compute the expected results
// of its queries from a seed, how to build its federation from the seed and
// those results, and how many closed-loop clients drive it.
type workload struct {
	name    string
	sizes   string
	clients int
	// warmUp is how many queries run unmeasured before the window, about
	// three seconds' worth on a 2-vCPU host.
	warmUp int64
	// reference evaluates the workload's queries on an independent path and
	// returns their serialized results; it is computed once per run, outside
	// the timed set-up.
	reference func(seed uint64) ([]string, error)
	build     func(seed uint64, wants []string) (*fixture, error)
}

var workloads = []workload{
	{
		name:      "scatter_warm",
		sizes:     "16 federations of 136 persons (~64 KiB) over 4 in-memory shards each; 4 Bulk RPCs per query; 2 clients",
		clients:   2,
		warmUp:    4000,
		reference: scatterReference,
		build:     buildScatterWarm,
	},
	{
		name:      "q2_projection",
		sizes:     "16 federations of xmark.ForSize(512 KiB) people + auctions on 2 in-memory peers each; 2 RPCs per query; 1 client",
		clients:   1,
		warmUp:    500,
		reference: q2Reference,
		build:     buildQ2Projection,
	},
	{
		name:      "adhoc_stream_http",
		sizes:     "1024 persons over 4 HTTP shards (~256 per shard); 4 streamed lanes per query, 32 items per frame; 256 seeded query shapes; 1 client",
		clients:   1,
		warmUp:    400,
		reference: adhocReference,
		build:     buildAdhocStreamHTTP,
	},
}

// newFixture computes the workload's references and builds its federation.
func (wl workload) newFixture(seed uint64) (*fixture, error) {
	wants, err := wl.reference(seed)
	if err != nil {
		return nil, err
	}
	return wl.build(seed, wants)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fixture is one workload's federation, ready to serve queries through the
// public service front end.
type fixture struct {
	svc      *service.Service
	net      *peer.Network
	strategy core.Strategy
	shards   []core.ShardMap
	// peers names every remote peer; servers holds each one's XRPC server
	// and inner the transport the originator reached it over before any
	// instrumentation was routed in.
	peers   []string
	servers map[string]*xrpc.Server
	inner   map[string]xrpc.Transport
	// endpoints is set for HTTP workloads: each peer's switchable handler.
	endpoints map[string]*endpoint
	// query returns the i-th query of the run and its expected serialized
	// result.
	query func(i int64) (src, want string)
	// texts are representative query texts for the plan-layer replays.
	texts []string
	seq   atomic.Int64
	close func()
}

// serializeSeq renders a result sequence for comparison: nodes as XML,
// atomics as their string values, space separated.
func serializeSeq(s xdm.Sequence) string {
	var sb strings.Builder
	for i, it := range s {
		if i > 0 {
			sb.WriteByte(' ')
		}
		switch v := it.(type) {
		case *xdm.Node:
			_ = xdm.Serialize(&sb, v)
		case xdm.Atomic:
			sb.WriteString(v.ItemString())
		}
	}
	return sb.String()
}

// peopleConfig is the person generator shape every workload shares.
func peopleConfig(seed uint64, persons, filler int) xmark.Config {
	return xmark.Config{Seed: seed, Persons: persons, FillerBytes: filler, MinAge: 18, MaxAge: 50}
}

// shardReference builds the unsharded logical people document, independently
// of the shard planner: one site/people skeleton holding every shard's
// person records copied in shard-major order — the order a scatter over the
// shards in peer order gathers them in.
func shardReference(uri string, shards []*xdm.Document) (*xdm.Document, error) {
	d := xdm.NewDocument(uri)
	site := xdm.NewElement("site")
	people := xdm.NewElement("people")
	site.AppendChild(people)
	for i, sd := range shards {
		var src *xdm.Node
		for _, ch := range sd.Root.Children[0].Children {
			if ch.Kind == xdm.ElementNode && ch.Name == "people" {
				src = ch
			}
		}
		if src == nil {
			return nil, fmt.Errorf("shard %d lacks site/people", i)
		}
		for _, rec := range src.Children {
			if rec.Kind == xdm.ElementNode && rec.Name == "person" {
				people.AppendChild(rec.Copy())
			}
		}
	}
	d.Root.AppendChild(site)
	d.Freeze()
	return d, nil
}

// localReference evaluates src on a plain engine that resolves the given
// documents by URI: no decomposition, no XRPC, no shards.
func localReference(docs map[string]*xdm.Document, src string) (string, error) {
	eng := eval.NewEngine(eval.ResolverFunc(func(uri string) (*xdm.Document, error) {
		if d, ok := docs[uri]; ok {
			return d, nil
		}
		return nil, fmt.Errorf("reference engine: unexpected doc(%q)", uri)
	}))
	res, err := eng.QueryString(src)
	if err != nil {
		return "", fmt.Errorf("reference evaluation: %w", err)
	}
	return serializeSeq(res), nil
}

// peopleShards generates the n people shards of cfg for peers numbered from
// first+1 and returns the peers' names and the documents.
func peopleShards(cfg xmark.Config, n, first int) ([]string, []*xdm.Document) {
	names := make([]string, n)
	docs := make([]*xdm.Document, n)
	for i := range names {
		names[i] = fmt.Sprintf("peer%d", first+i+1)
		docs[i] = xmark.PeopleShardDocument(cfg, i, n, "xrpc://"+names[i]+"/"+xmark.PeopleShardPath)
	}
	return names, docs
}

// addShards adds one in-memory peer per shard to net.
func addShards(net *peer.Network, names []string, docs []*xdm.Document) {
	for i, name := range names {
		net.AddPeer(name).AddDoc(xmark.PeopleShardPath, docs[i])
	}
}

// inMemoryFixture completes a fixture whose peers all live on net's
// in-memory transport.
func inMemoryFixture(net *peer.Network, names []string, strat core.Strategy, clients int) *fixture {
	f := &fixture{
		net: net, strategy: strat, peers: names,
		servers: map[string]*xrpc.Server{}, inner: map[string]xrpc.Transport{},
		close: func() {},
	}
	for _, name := range names {
		p, _ := net.Peer(name)
		f.servers[name] = p.Server
		f.inner[name] = net.Transport
	}
	origin := net.AddPeer("local")
	f.svc = service.New(net, origin, strat, service.Config{MaxConcurrent: clients})
	return f
}

// The in-memory workloads spread their queries round-robin over several
// independently generated federations behind one service. Each seed draws
// every group's documents afresh; averaging over the groups keeps the
// per-query work, and so every metric, from swinging with the size of one
// small random document.
const groups = 16

// groupSeed derives the document seed of one group from the run's seed.
func groupSeed(seed uint64, g int) uint64 { return seed*groups + uint64(g) }

// scatterShards generates group g's four people shards.
func scatterShards(seed uint64, g int) ([]string, []*xdm.Document) {
	return peopleShards(peopleConfig(groupSeed(seed, g), 136, 256), 4, 4*g)
}

func scatterReference(seed uint64) ([]string, error) {
	wants := make([]string, groups)
	for g := range wants {
		_, docs := scatterShards(seed, g)
		ref, err := shardReference("reference.xml", docs)
		if err != nil {
			return nil, err
		}
		if wants[g], err = localReference(map[string]*xdm.Document{"reference.xml": ref},
			`for $x in doc("reference.xml")/child::site/child::people/child::person
			 return if ($x/descendant::age < 40) then $x/child::name else ()`); err != nil {
			return nil, err
		}
	}
	return wants, nil
}

func buildScatterWarm(seed uint64, wants []string) (*fixture, error) {
	net := peer.NewNetwork()
	var all []string
	srcs := make([]string, groups)
	for g := range srcs {
		names, docs := scatterShards(seed, g)
		addShards(net, names, docs)
		srcs[g] = xmark.ScatterQuery(names)
		all = append(all, names...)
	}
	f := inMemoryFixture(net, all, core.ByFragment, 2)
	f.query = func(i int64) (string, string) { return srcs[i%groups], wants[i%groups] }
	f.texts = srcs
	return f, nil
}

// q2Group generates group g's two peers: people on the first, auctions on
// the second.
func q2Group(seed uint64, g int) (p1, p2 string, people, auctions *xdm.Document) {
	cfg := xmark.ForSize(1 << 19)
	cfg.Seed = groupSeed(seed, g)
	p1, p2 = fmt.Sprintf("peer%d", 2*g+1), fmt.Sprintf("peer%d", 2*g+2)
	people = xmark.PeopleDocument(cfg, "xrpc://"+p1+"/xmk.xml")
	auctions = xmark.AuctionsDocument(cfg, "xrpc://"+p2+"/xmk.auctions.xml")
	return p1, p2, people, auctions
}

func q2Reference(seed uint64) ([]string, error) {
	wants := make([]string, groups)
	for g := range wants {
		p1, p2, people, auctions := q2Group(seed, g)
		var err error
		if wants[g], err = localReference(map[string]*xdm.Document{
			"xrpc://" + p1 + "/xmk.xml":          people,
			"xrpc://" + p2 + "/xmk.auctions.xml": auctions,
		}, xmark.BenchmarkQuery(p1, p2)); err != nil {
			return nil, err
		}
	}
	return wants, nil
}

func buildQ2Projection(seed uint64, wants []string) (*fixture, error) {
	net := peer.NewNetwork()
	var all []string
	srcs := make([]string, groups)
	for g := range srcs {
		p1, p2, people, auctions := q2Group(seed, g)
		net.AddPeer(p1).AddDoc("xmk.xml", people)
		net.AddPeer(p2).AddDoc("xmk.auctions.xml", auctions)
		srcs[g] = xmark.BenchmarkQuery(p1, p2)
		all = append(all, p1, p2)
	}
	f := inMemoryFixture(net, all, core.ByProjection, 1)
	f.query = func(i int64) (string, string) { return srcs[i%groups], wants[i%groups] }
	f.texts = srcs
	return f, nil
}

// endpoint is one HTTP peer's request handler, swappable while the server
// runs so the traced run can put a timing wrapper in front of the server.
type endpoint struct {
	h atomic.Pointer[http.Handler]
}

func (e *endpoint) serve(h xrpc.Handler) {
	mux := http.NewServeMux()
	mux.Handle("/xrpc", xrpc.NewHTTPHandler(h))
	mux.Handle("/xrpc/stream", xrpc.NewStreamHTTPHandler(h))
	var hh http.Handler = mux
	e.h.Store(&hh)
}

func (e *endpoint) ServeHTTP(w http.ResponseWriter, r *http.Request) { (*e.h.Load()).ServeHTTP(w, r) }

const adhocShapes = 256

// adhocShards generates the four shards of the logical people document.
func adhocShards(seed uint64) ([]string, []*xdm.Document) {
	return peopleShards(peopleConfig(seed, 1024, 0), 4, 0)
}

// adhocShapeSet draws the run's query shapes from the seed.
func adhocShapeSet(seed uint64) []adhocShape {
	gen := newAdhocGen(seed)
	shapes := make([]adhocShape, adhocShapes)
	for i := range shapes {
		shapes[i] = gen.shape(i)
	}
	return shapes
}

// adhocReference evaluates every shape on the unsharded document. The tag
// predicate that makes each request's text unique filters nothing, so one
// reference serves every request of a shape.
func adhocReference(seed uint64) ([]string, error) {
	_, docs := adhocShards(seed)
	ref, err := shardReference(xmark.LogicalPeopleURI, docs)
	if err != nil {
		return nil, err
	}
	refDocs := map[string]*xdm.Document{xmark.LogicalPeopleURI: ref}
	wants := make([]string, adhocShapes)
	for i, sh := range adhocShapeSet(seed) {
		if wants[i], err = localReference(refDocs, sh.text(int64(i))); err != nil {
			return nil, err
		}
	}
	return wants, nil
}

func buildAdhocStreamHTTP(seed uint64, wants []string) (*fixture, error) {
	// The peers live in a network of their own; the originator's network
	// reaches them only over HTTP.
	backend := peer.NewNetwork()
	names, docs := adhocShards(seed)
	addShards(backend, names, docs)
	front := peer.NewNetwork()
	f := &fixture{
		net: front, strategy: core.ByFragment, peers: names,
		servers: map[string]*xrpc.Server{}, inner: map[string]xrpc.Transport{},
		endpoints: map[string]*endpoint{},
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	var servers []*httptest.Server
	f.close = func() {
		client.CloseIdleConnections()
		for _, s := range servers {
			s.Close()
		}
	}
	for _, name := range names {
		p, _ := backend.Peer(name)
		ep := &endpoint{}
		ep.serve(p.Server)
		ts := httptest.NewServer(ep)
		servers = append(servers, ts)
		url := ts.URL + "/xrpc"
		tr := &xrpc.HTTPTransport{Client: client, URLFor: func(string) string { return url }}
		front.RouteExternal(name, tr)
		f.servers[name] = p.Server
		f.inner[name] = tr
		f.endpoints[name] = ep
	}
	origin := front.AddPeer("local")
	f.shards = []core.ShardMap{xmark.PeopleShardMap(names)}
	f.svc = service.New(front, origin, core.ByFragment, service.Config{MaxConcurrent: 1, Streamed: true}).
		UseShards(f.shards...)

	shapes := adhocShapeSet(seed)
	f.query = func(i int64) (string, string) {
		k := i % adhocShapes
		return shapes[k].text(i), wants[k]
	}
	for i := int64(0); i < 16; i++ {
		src, _ := f.query(i)
		f.texts = append(f.texts, src)
	}
	return f, nil
}
