package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"distxq/internal/core"
	"distxq/internal/xmark"
	"distxq/internal/xq"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	ten := seq(10)
	for _, c := range []struct{ p, want float64 }{
		{10, 1}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestMedian(t *testing.T) {
	odd := []float64{3, 1, 2}
	if got := median(odd); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if odd[0] != 3 || odd[1] != 1 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		label  string
		value  float64
		beyond int
	}{
		{10000, "p99.9", 9990, 10},
		{1000, "p99", 990, 10},
		{999, "p90", 900, 99}, // p99 would leave 9 beyond
		{200, "p90", 180, 20},
		{20, "p50", 10, 10},
	} {
		got := tailPercentile(seq(c.n))
		if got.Label != c.label || got.Value != c.value || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got %+v, want %s=%v with %d beyond", c.n, got, c.label, c.value, c.beyond)
		}
	}
	if got := tailPercentile(seq(19)); got.Label != "none" || !math.IsNaN(got.Value) {
		t.Errorf("19 samples: got %+v, want no reportable tail", got)
	}
}

func TestStealShare(t *testing.T) {
	a := hostCPU{total: 1000, steal: 100, ok: true}
	b := hostCPU{total: 1400, steal: 200, ok: true}
	if got := stealShare(a, b); got != 0.25 {
		t.Errorf("stealShare = %v, want 0.25", got)
	}
	if !math.IsNaN(stealShare(hostCPU{}, b)) || !math.IsNaN(stealShare(a, a)) {
		t.Error("unreadable or empty intervals should give NaN")
	}
}

func adhocTexts(seed uint64, n int) []string {
	g := newAdhocGen(seed)
	out := make([]string, n)
	for i := range out {
		out[i] = g.shape(i).text(int64(i))
	}
	return out
}

func TestAdhocSameSeedSameTexts(t *testing.T) {
	a, b := adhocTexts(7, adhocShapes), adhocTexts(7, adhocShapes)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 query %d differs between generators:\n%s\n%s", i, a[i], b[i])
		}
	}
	if c := adhocTexts(8, adhocShapes); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Error("seeds 7 and 8 generated the same queries")
	}
	seen := map[string]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatalf("query text repeated: %s", s)
		}
		seen[s] = true
	}
}

// TestAdhocQueriesScatter: every generated query must take the shard
// rewrite; a materialize fallback would ship whole documents.
func TestAdhocQueriesScatter(t *testing.T) {
	names := []string{"peer1", "peer2", "peer3", "peer4"}
	opts := core.DefaultOptions()
	opts.Shards = []core.ShardMap{xmark.PeopleShardMap(names)}
	opts.KnownPeers = map[string]bool{"peer1": true, "peer2": true, "peer3": true, "peer4": true, "local": true}
	for _, seed := range []uint64{1, 2, 3} {
		for i, src := range adhocTexts(seed, adhocShapes) {
			q, err := xq.ParseQuery(src)
			if err != nil {
				t.Fatalf("seed %d query %d: %v\n%s", seed, i, err, src)
			}
			plan, err := core.Decompose(q, core.ByFragment, opts)
			if err != nil {
				t.Fatalf("seed %d query %d: %v\n%s", seed, i, err, src)
			}
			if len(plan.Shards) == 0 {
				t.Fatalf("seed %d query %d: no shard decision\n%s", seed, i, src)
			}
			for _, d := range plan.Shards {
				if !d.Scattered {
					t.Fatalf("seed %d query %d fell back (%s)\n%s", seed, i, d.Reason, src)
				}
			}
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON: the program prints exactly the
// metrics BENCHMARK.json declares, with the same units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	e2e := endToEndMetrics(window{}, 0, checkerCost{})
	e2e["setup_s"] = metric{0, "s"} // added by endToEnd after its second batch of set-ups
	if len(e2e) != len(bench.EndToEnd) {
		t.Errorf("program prints %d end-to-end metrics, BENCHMARK.json lists %d", len(e2e), len(bench.EndToEnd))
	}
	for _, m := range bench.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): program has %+v", m.Name, m.Unit, got)
		}
	}
	if len(layerMetrics) != len(bench.PerLayer) {
		t.Errorf("program has %d per-layer metrics, BENCHMARK.json lists %d", len(layerMetrics), len(bench.PerLayer))
	}
	for i, m := range bench.PerLayer {
		if i < len(layerMetrics) && (layerMetrics[i].name != m.Name || layerMetrics[i].unit != m.Unit) {
			t.Errorf("per-layer #%d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
	for _, w := range bench.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown to the program", w.Name)
		}
	}
}

// TestWrongResultCountsAsFailure: a result that differs from the reference
// is a failed operation, not a completed one.
func TestWrongResultCountsAsFailure(t *testing.T) {
	wl, _ := findWorkload("scatter_warm")
	f, err := wl.newFixture(1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	right := f.query
	f.query = func(i int64) (string, string) {
		src, want := right(i)
		if i%2 == 1 {
			want += " "
		}
		return src, want
	}
	w := runQueries(f, 1, time.Minute, 10, nil)
	if w.attempted != 10 || w.failed != 5 || w.completed != 5 {
		t.Fatalf("attempted %d failed %d completed %d, want 10/5/5", w.attempted, w.failed, w.completed)
	}
}

// TestCheckerCostIsPartOfWindow: the checker calibration finds the
// benchmark's own per-query work, and it is a part of what a window counts.
func TestCheckerCostIsPartOfWindow(t *testing.T) {
	wl, _ := findWorkload("q2_projection")
	f, err := wl.newFixture(1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	w := runQueries(f, 1, time.Minute, 32, nil)
	chk, err := measureChecker(f)
	if err != nil {
		t.Fatal(err)
	}
	if chk.mallocs <= 0 || chk.bytes <= 0 {
		t.Fatalf("checker cost %+v, want positive", chk)
	}
	if perQ := w.perQuery(float64(w.mallocs)); chk.mallocs >= perQ {
		t.Errorf("checker %v allocations per query, window %v in all", chk.mallocs, perQ)
	}
	if perQ := w.perQuery(float64(w.allocBytes)); chk.bytes >= perQ {
		t.Errorf("checker %v bytes per query, window %v in all", chk.bytes, perQ)
	}
}

// shortRun builds a fresh fixture and returns the deterministic counts of
// its first n queries after a few warm-up queries.
func shortRun(t *testing.T, wl workload, n int64) map[string]float64 {
	t.Helper()
	f, err := wl.newFixture(3)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	runQueries(f, 1, time.Minute, 5, nil)
	w := runQueries(f, 1, time.Minute, n, nil)
	if w.failed != 0 || w.completed != n {
		t.Fatalf("%s: %d of %d queries failed: %s", wl.name, w.failed, w.attempted, w.firstErr)
	}
	hits := float64(w.planHits)
	return map[string]float64{
		"allocs_per_query":        w.perQuery(float64(w.mallocs)),
		"transfer_kb_per_query":   w.perQuery(float64(w.transferBytes)) / 1024,
		"xrpc.requests_per_query": w.perQuery(float64(w.requests)),
		"service.plan_hit_ratio":  hits / (hits + float64(w.planMisses)),
	}
}

// TestDeterministicCountsRepeat: two short runs of the same seed agree on
// the counts the benchmark treats as deterministic. Transfer bytes may
// wobble by the exec-ns/serde-ns digits embedded in responses; allocations
// by the runtime's own bookkeeping.
func TestDeterministicCountsRepeat(t *testing.T) {
	tol := map[string]float64{
		"allocs_per_query":        0.02,
		"transfer_kb_per_query":   0.002,
		"xrpc.requests_per_query": 0,
		"service.plan_hit_ratio":  0,
	}
	for _, wl := range workloads {
		n := int64(40)
		if wl.name == "scatter_warm" {
			n = 200
		}
		a, b := shortRun(t, wl, n), shortRun(t, wl, n)
		keys := make([]string, 0, len(a))
		for k := range a {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if d := math.Abs(a[k]-b[k]) / math.Max(math.Abs(a[k]), 1e-9); d > tol[k] {
				t.Errorf("%s %s: %v then %v (relative difference %.4f > %.4f)", wl.name, k, a[k], b[k], d, tol[k])
			}
		}
	}
}

// TestLayerContrasts runs the traced ledger briefly and checks the
// contrasts the workloads were chosen for.
func TestLayerContrasts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the traced ledger")
	}
	got := map[string]map[string]float64{}
	for _, name := range []string{"scatter_warm", "q2_projection", "adhoc_stream_http"} {
		wl, _ := findWorkload(name)
		f, err := wl.newFixture(1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := layers(f, wl, 1, time.Second, t.TempDir())
		f.close()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%s: traced run failed %d of %d", name, res.Failed, res.Attempted)
		}
		got[name] = map[string]float64{}
		for _, lm := range layerMetrics {
			m, ok := res.Metrics[lm.name]
			if !ok {
				t.Fatalf("%s: per-layer metric %s missing", name, lm.name)
			}
			got[name][lm.name] = m.Value
		}
	}
	sc, q2, ad := got["scatter_warm"], got["q2_projection"], got["adhoc_stream_http"]
	for _, k := range []string{"core.decompose_us", "xq.normalize_us", "eval.compile_us"} {
		if sc[k] != 0 || q2[k] != 0 {
			t.Errorf("%s: plan-miss work on warm workloads: scatter %v, q2 %v", k, sc[k], q2[k])
		}
	}
	if ad["core.decompose_us"] <= 0 || ad["service.plan_hit_ratio"] != 0 {
		t.Errorf("adhoc: decompose %v us, plan hit ratio %v; want work on every query", ad["core.decompose_us"], ad["service.plan_hit_ratio"])
	}
	if sc["service.plan_hit_ratio"] != 1 || q2["service.plan_hit_ratio"] != 1 {
		t.Errorf("warm workloads plan hit ratio: scatter %v, q2 %v", sc["service.plan_hit_ratio"], q2["service.plan_hit_ratio"])
	}
	for name, m := range map[string]map[string]float64{"scatter_warm": sc, "q2_projection": q2} {
		if m["xrpc.transport_us"] > 0.05*m["xrpc.server_handle_us"] {
			t.Errorf("%s: in-memory transport %v us against %v us in the handler", name, m["xrpc.transport_us"], m["xrpc.server_handle_us"])
		}
		if m["xrpc.stream_frames_per_query"] != 0 {
			t.Errorf("%s: %v stream frames on a gather workload", name, m["xrpc.stream_frames_per_query"])
		}
	}
	if ad["xrpc.stream_frames_per_query"] <= ad["xrpc.requests_per_query"] {
		t.Errorf("adhoc: %v frames for %v lanes; most lanes should stream several frames", ad["xrpc.stream_frames_per_query"], ad["xrpc.requests_per_query"])
	}
	for _, k := range []string{"xrpc.request_shred_us", "xq.module_parse_us", "xrpc.response_marshal_us"} {
		if q2[k] >= q2["eval.remote_eval_us"] {
			t.Errorf("q2: %s (%v us) is not below remote eval (%v us)", k, q2[k], q2["eval.remote_eval_us"])
		}
	}
	for name, m := range got {
		if m["xrpc.retries_per_query"] != 0 {
			t.Errorf("%s: %v retries per query without a retry policy", name, m["xrpc.retries_per_query"])
		}
	}
	if sc["xrpc.requests_per_query"] != 4 || q2["xrpc.requests_per_query"] != 2 || ad["xrpc.requests_per_query"] != 4 {
		t.Errorf("requests per query: scatter %v, q2 %v, adhoc %v; want 4/2/4",
			sc["xrpc.requests_per_query"], q2["xrpc.requests_per_query"], ad["xrpc.requests_per_query"])
	}
}
