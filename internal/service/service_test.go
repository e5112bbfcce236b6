package service

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"distxq/internal/core"
	"distxq/internal/eval"
	"distxq/internal/peer"
	"distxq/internal/xdm"
	"distxq/internal/xrpc"
)

// values renders a result sequence as its space-separated item strings.
func values(res xdm.Sequence) string {
	out := ""
	for i, it := range res {
		if i > 0 {
			out += " "
		}
		out += it.ItemString()
	}
	return out
}

// newTestService builds a two-peer scatter federation behind a service.
func newTestService(t *testing.T, cfg Config) (*Service, *peer.Network, string) {
	t.Helper()
	n := peer.NewNetwork()
	for i := 1; i <= 2; i++ {
		doc := fmt.Sprintf(`<r><v>x%d</v></r>`, i)
		if err := n.AddPeer(fmt.Sprintf("peer%d", i)).LoadXML("d.xml", doc); err != nil {
			t.Fatal(err)
		}
	}
	origin := n.AddPeer("local")
	query := `
declare function f() as item()* { doc("d.xml")/child::r/child::v };
for $p in ("peer1", "peer2") return execute at {$p} { f() }`
	return New(n, origin, core.ByFragment, cfg), n, query
}

// TestAdmissionQueueFullSheds: with the capacity token and the single queue
// slot both taken, a third arrival is shed instantly with the typed
// overload error.
func TestAdmissionQueueFullSheds(t *testing.T) {
	s := New(nil, nil, core.ByFragment, Config{
		MaxConcurrent: 1, MaxQueue: 1, MaxQueueWait: 200 * time.Millisecond,
	})
	release, err := s.admit(core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		rel, err := s.admit(core.Budget{})
		if rel != nil {
			defer rel()
		}
		queued <- err
	}()
	// Wait until the queued admit occupies the slot, then the next arrival
	// must bounce immediately.
	for deadline := time.Now().Add(time.Second); s.queued.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second admit never queued")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	rel3, err := s.admit(core.Budget{})
	if rel3 != nil || !errors.Is(err, xrpc.ErrOverloaded) {
		t.Fatalf("queue-full admit: release=%v err=%v, want typed overload", rel3 != nil, err)
	}
	if e := time.Since(start); e > 50*time.Millisecond {
		t.Errorf("queue-full shed took %v, want immediate", e)
	}
	// Releasing the token admits the queued waiter.
	release()
	if err := <-queued; err != nil {
		t.Fatalf("queued admit failed after release: %v", err)
	}
}

// TestAdmissionQueueTimeBudget: a queued query waits at most
// min(MaxQueueWait, budget/10), then sheds with the typed overload error.
func TestAdmissionQueueTimeBudget(t *testing.T) {
	s := New(nil, nil, core.ByFragment, Config{
		MaxConcurrent: 1, MaxQueue: 4, MaxQueueWait: 10 * time.Second,
	})
	release, err := s.admit(core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	// Budget 100ms -> queue allowance 10ms, far under MaxQueueWait.
	start := time.Now()
	rel, err := s.admit(core.Budget{Wall: 100 * time.Millisecond})
	elapsed := time.Since(start)
	if rel != nil || !errors.Is(err, xrpc.ErrOverloaded) {
		t.Fatalf("queued admit: release=%v err=%v, want typed overload", rel != nil, err)
	}
	if elapsed < 5*time.Millisecond || elapsed > time.Second {
		t.Errorf("queue wait %v, want ~10ms (budget/10), not MaxQueueWait", elapsed)
	}
}

// TestPlanCacheHitsAndEpochInvalidation: repeated queries plan once;
// installing shard maps bumps the epoch and forces a re-plan.
func TestPlanCacheHitsAndEpochInvalidation(t *testing.T) {
	s, _, query := newTestService(t, Config{})
	for i := 0; i < 3; i++ {
		if _, _, err := s.Query(query, core.Budget{}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.PlanMisses != 1 || st.PlanHits != 2 {
		t.Fatalf("plan cache misses=%d hits=%d, want 1/2", st.PlanMisses, st.PlanHits)
	}
	// Epoch bump: same source, fresh plan. The shard map is irrelevant to
	// this query; only the key's epoch matters.
	s.UseShards(core.ShardMap{
		Logical:    "shard://test/d",
		Peers:      []string{"peer1", "peer2"},
		ShardPath:  "d.xml",
		RecordPath: "child::r/child::v",
	})
	if _, _, err := s.Query(query, core.Budget{}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PlanMisses != 2 {
		t.Fatalf("post-epoch misses=%d, want 2", st.PlanMisses)
	}
}

// TestServiceDeadlineCounted: a spent budget fails the query with the typed
// deadline error and lands in the DeadlineExceeded counter.
func TestServiceDeadlineCounted(t *testing.T) {
	s, _, query := newTestService(t, Config{})
	_, _, err := s.Query(query, core.Budget{Wall: time.Nanosecond})
	if err == nil || !errors.Is(err, xrpc.ErrDeadlineExceeded) {
		t.Fatalf("err=%v, want deadline-exceeded", err)
	}
	st := s.Stats()
	if st.Failed != 1 || st.DeadlineExceeded != 1 {
		t.Fatalf("failed=%d deadline=%d, want 1/1", st.Failed, st.DeadlineExceeded)
	}
}

// TestServiceDefaultBudgetApplied: the zero budget takes Config's default —
// observable because an impossibly small default kills the query.
func TestServiceDefaultBudgetApplied(t *testing.T) {
	s, _, query := newTestService(t, Config{DefaultBudget: core.Budget{Wall: time.Nanosecond}})
	if _, _, err := s.Query(query, core.Budget{}); !errors.Is(err, xrpc.ErrDeadlineExceeded) {
		t.Fatalf("err=%v, want deadline-exceeded from default budget", err)
	}
}

// TestPlanCacheSharesConcurrentBuilds: misses on a key whose build is in
// flight wait for that build and receive its plan, so a burst of identical
// queries decomposes and compiles once.
func TestPlanCacheSharesConcurrentBuilds(t *testing.T) {
	c := newPlanCache(4)
	release := make(chan struct{})
	builds := 0
	plan := &core.Plan{}
	build := func() (cachedPlan, error) {
		builds++
		<-release
		return cachedPlan{plan: plan}, nil
	}
	const callers = 8
	type result struct {
		p     *core.Plan
		built bool
	}
	results := make(chan result, callers)
	call := func() {
		p, built, err := c.getOrBuild("q", build)
		if err != nil {
			t.Error(err)
		}
		results <- result{p.plan, built}
	}
	// The first caller starts the build; the rest arrive while it is in
	// flight or after it is published, and neither may build again.
	go call()
	for {
		c.mu.Lock()
		inFlight := c.building["q"] != nil
		c.mu.Unlock()
		if inFlight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < callers; i++ {
		go call()
	}
	close(release)
	builders := 0
	for i := 0; i < callers; i++ {
		r := <-results
		if r.p != plan {
			t.Fatal("a caller received a different plan")
		}
		if r.built {
			builders++
		}
	}
	if builds != 1 || builders != 1 {
		t.Fatalf("builds=%d builders=%d, want one build by one caller", builds, builders)
	}
}

// TestPlanCacheEviction: the bounded cache evicts in insertion order.
func TestPlanCacheEviction(t *testing.T) {
	c := newPlanCache(2)
	c.put("a", cachedPlan{plan: &core.Plan{}})
	c.put("b", cachedPlan{plan: &core.Plan{}})
	c.put("c", cachedPlan{plan: &core.Plan{}})
	if c.Len() != 2 {
		t.Fatalf("len=%d, want 2", c.Len())
	}
	cached := func(key string) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.entries[key]
		return ok
	}
	if cached("a") {
		t.Error("oldest entry a survived eviction")
	}
	for _, k := range []string{"b", "c"} {
		if !cached(k) {
			t.Errorf("entry %s missing", k)
		}
	}
	// Re-putting an existing key replaces without evicting.
	c.put("b", cachedPlan{plan: &core.Plan{}})
	if c.Len() != 2 {
		t.Errorf("len=%d after re-put, want 2", c.Len())
	}
}

// TestCompiledPlanNotStaleAcrossShardEpochs is the stale-plan proof for
// compiled execution: UseShards between two identical queries installs the
// new map on the network and bumps its topology epoch, so the second execution misses the cache, re-plans and re-compiles
// against the new shard map — and the old compiled plan can never route to a
// peer absent from it. The old shard peers are killed before the second
// query; it still succeeds, answered entirely by the new map's peers.
func TestCompiledPlanNotStaleAcrossShardEpochs(t *testing.T) {
	n := peer.NewNetwork()
	for i := 1; i <= 4; i++ {
		doc := fmt.Sprintf(`<r><v>a%d</v></r>`, i)
		if err := n.AddPeer(fmt.Sprintf("peer%d", i)).LoadXML("d.xml", doc); err != nil {
			t.Fatal(err)
		}
	}
	origin := n.AddPeer("local")
	s := New(n, origin, core.ByFragment, Config{})
	shardMap := func(peers ...string) core.ShardMap {
		return core.ShardMap{
			Logical:    "shard://test/d",
			Peers:      peers,
			ShardPath:  "d.xml",
			RecordPath: "child::r/child::v",
		}
	}
	query := `for $x in doc("shard://test/d")/child::r/child::v return $x`

	s.UseShards(shardMap("peer1", "peer2"))
	res, rep, err := s.Query(query, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if got := values(res); got != "a1 a2" {
		t.Fatalf("epoch 1 result %q, want \"a1 a2\"", got)
	}
	if len(rep.Shards) == 0 || !rep.Shards[0].Scattered {
		t.Fatalf("epoch 1 plan did not scatter: %+v", rep.Shards)
	}
	if st := s.Stats(); st.PlanMisses != 1 {
		t.Fatalf("epoch 1 misses=%d, want 1", st.PlanMisses)
	}

	// Re-home the logical document and take the old peers down: any routing
	// decision left over from the stale compiled plan now fails loudly.
	s.UseShards(shardMap("peer3", "peer4"))
	n.KillPeer("peer1")
	n.KillPeer("peer2")

	res, rep, err = s.Query(query, core.Budget{})
	if err != nil {
		t.Fatalf("epoch 2 query failed (stale compiled plan routed to a dead peer?): %v", err)
	}
	if got := values(res); got != "a3 a4" {
		t.Fatalf("epoch 2 result %q, want \"a3 a4\"", got)
	}
	if len(rep.Shards) == 0 || !rep.Shards[0].Scattered {
		t.Fatalf("epoch 2 plan did not scatter: %+v", rep.Shards)
	}
	st := s.Stats()
	if st.PlanMisses != 2 || st.PlanHits != 0 {
		t.Fatalf("epoch 2 misses=%d hits=%d, want 2/0 (epoch key must miss)", st.PlanMisses, st.PlanHits)
	}

	// The new epoch's entry carries its own compiled artifact, and caching it
	// evicted the superseded epoch's entry: a stale-epoch plan can never be
	// hit again (the key embeds the epoch), so it must not squat in the
	// bounded cache.
	s.plans.mu.Lock()
	for _, e := range s.plans.entries {
		if _, ok := e.plan.Query.CompiledArtifact().(*eval.Program); !ok {
			t.Error("cached plan published without its compiled artifact")
		}
		if e.epoch != 2 {
			t.Errorf("cached entry of epoch %d survived epoch 2", e.epoch)
		}
	}
	count := len(s.plans.entries)
	s.plans.mu.Unlock()
	if count != 1 {
		t.Fatalf("cache holds %d entries, want 1 (superseded epoch evicted)", count)
	}
}

// TestLiveEpochRePlanAndReroute extends the stale-plan proof to the live
// topology: the service keys its plan cache on the network's topology
// epoch, so a Reshard applied directly to the network — no UseShards call,
// no service involvement at all — forces a re-plan, and the
// next query follows the shards to their new homes even though every old
// host is dead.
func TestLiveEpochRePlanAndReroute(t *testing.T) {
	n := peer.NewNetwork()
	for i := 1; i <= 4; i++ {
		doc := fmt.Sprintf(`<r><v>a%d</v></r>`, i)
		if err := n.AddPeer(fmt.Sprintf("peer%d", i)).LoadXML("d.xml", doc); err != nil {
			t.Fatal(err)
		}
	}
	origin := n.AddPeer("local")
	if _, err := n.UpdateShards(core.ShardMap{
		Logical:    "shard://test/d",
		Peers:      []string{"peer1", "peer2"},
		ShardPath:  "d.xml",
		RecordPath: "child::r/child::v",
	}); err != nil {
		t.Fatal(err)
	}
	s := New(n, origin, core.ByFragment, Config{})
	query := `for $x in doc("shard://test/d")/child::r/child::v return $x`

	res, _, err := s.Query(query, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if got := values(res); got != "a1 a2" {
		t.Fatalf("initial result %q, want \"a1 a2\"", got)
	}

	// Re-home both shards via a delta on the network: peer3/peer4 join and
	// take over, peer1/peer2 leave and die.
	if _, err := n.Reshard("shard://test/d", core.ShardDelta{
		Join:  []string{"peer3", "peer4"},
		Move:  map[int]string{0: "peer3", 1: "peer4"},
		Leave: []string{"peer1", "peer2"},
	}); err != nil {
		t.Fatal(err)
	}
	n.KillPeer("peer1")
	n.KillPeer("peer2")

	res, rep, err := s.Query(query, core.Budget{})
	if err != nil {
		t.Fatalf("post-reshard query failed (stale plan routed to a dead peer?): %v", err)
	}
	if got := values(res); got != "a3 a4" {
		t.Fatalf("post-reshard result %q, want \"a3 a4\"", got)
	}
	if len(rep.Shards) == 0 || !rep.Shards[0].Scattered {
		t.Fatalf("post-reshard plan did not scatter: %+v", rep.Shards)
	}
	if st := s.Stats(); st.PlanMisses != 2 || st.PlanHits != 0 {
		t.Fatalf("misses=%d hits=%d, want 2/0 (live epoch must miss)", st.PlanMisses, st.PlanHits)
	}
}

// TestOneShardTopology pins the network's versioned layout as the only home
// of shard maps: a session created before the install plans against it on
// its next query, a session and a service on one network plan against the
// same epoch and follow a reshard together, and a hand-written scatter loop
// fails over through the installed map's replica sets with no Replicas of
// its own.
func TestOneShardTopology(t *testing.T) {
	n := peer.NewNetwork()
	for i := 1; i <= 3; i++ {
		doc := fmt.Sprintf(`<r><v>a%d</v></r>`, i)
		if err := n.AddPeer(fmt.Sprintf("peer%d", i)).LoadXML("d.xml", doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.AddPeer("rep1").LoadXML("d.xml", `<r><v>a1</v></r>`); err != nil {
		t.Fatal(err)
	}
	origin := n.AddPeer("local")
	sess := n.NewSession(origin, core.ByFragment).UseRetry(&xrpc.RetryPolicy{})
	svc := New(n, origin, core.ByFragment, Config{})
	logical := `for $x in doc("shard://test/d")/child::r/child::v return $x`
	// both runs the logical query through the session and the service, and
	// checks they agree on the answer and that the service's cached plan
	// carries the network's current epoch.
	both := func(want string) {
		t.Helper()
		res, rep, err := sess.Query(logical)
		if err != nil {
			t.Fatalf("session: %v", err)
		}
		if got := values(res); got != want {
			t.Fatalf("session result %q, want %q", got, want)
		}
		if len(rep.Shards) == 0 || !rep.Shards[0].Scattered {
			t.Fatalf("session plan did not scatter: %+v", rep.Shards)
		}
		if res, _, err = svc.Query(logical, core.Budget{}); err != nil {
			t.Fatalf("service: %v", err)
		}
		if got := values(res); got != want {
			t.Fatalf("service result %q, want %q", got, want)
		}
		_, epoch := n.ShardTopology()
		svc.plans.mu.Lock()
		defer svc.plans.mu.Unlock()
		for _, e := range svc.plans.entries {
			if e.epoch != epoch {
				t.Fatalf("service plan of epoch %d, network epoch %d", e.epoch, epoch)
			}
		}
	}

	if _, _, err := sess.Query(logical); err == nil {
		t.Fatal("the logical document resolved before any layout was installed")
	}
	if _, err := n.UpdateShards(core.ShardMap{
		Logical:    "shard://test/d",
		Peers:      []string{"peer1", "peer2"},
		ShardPath:  "d.xml",
		RecordPath: "child::r/child::v",
		Replicas:   [][]string{{"rep1"}},
	}); err != nil {
		t.Fatal(err)
	}
	both("a1 a2")

	if _, err := n.Reshard("shard://test/d", core.ShardDelta{
		Join:  []string{"peer3"},
		Move:  map[int]string{1: "peer3"},
		Leave: []string{"peer2"},
	}); err != nil {
		t.Fatal(err)
	}
	n.KillPeer("peer2")
	both("a1 a3")

	n.KillPeer("peer1")
	res, rep, err := sess.Query(`
declare function f() as item()* { doc("d.xml")/child::r/child::v };
for $p in ("peer1", "peer3") return execute at {$p} { f() }`)
	if err != nil {
		t.Fatalf("hand-written loop with peer1 killed: %v", err)
	}
	if got := values(res); got != "a1 a3" {
		t.Fatalf("hand-written loop result %q, want \"a1 a3\"", got)
	}
	if w := rep.WinnerReplica["peer1"]; w != "rep1" {
		t.Fatalf("WinnerReplica[peer1] = %q, want rep1 from the installed map", w)
	}
}

// TestServiceUseShardsInstallError: UseShards is an install onto the
// network, and a rejected layout fails every later query with the install
// error while the network's topology stays untouched.
func TestServiceUseShardsInstallError(t *testing.T) {
	s, n, query := newTestService(t, Config{})
	s.UseShards(core.ShardMap{
		Logical:    "shard://test/d",
		Peers:      []string{"peer1", "ghost"},
		ShardPath:  "d.xml",
		RecordPath: "child::r/child::v",
	})
	for i := 0; i < 2; i++ {
		if _, _, err := s.Query(query, core.Budget{}); !errors.Is(err, core.ErrUnknownShardPeer) {
			t.Fatalf("query %d: want ErrUnknownShardPeer, got %v", i, err)
		}
	}
	if st := s.Stats(); st.Failed != 2 || st.PlanMisses != 0 {
		t.Fatalf("failed=%d misses=%d, want 2/0", st.Failed, st.PlanMisses)
	}
	if maps, epoch := n.ShardTopology(); maps != nil || epoch != 0 {
		t.Fatalf("rejected install changed the topology: %d maps, epoch %d", len(maps), epoch)
	}
}
