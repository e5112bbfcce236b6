package eval

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"distxq/internal/xdm"
)

const scatterSrc = `
	declare function f($x as xs:string) as item()* { $x };
	for $p in ("a", "b", "a", "c", "b", "a") return execute at {$p} { f($p) }`

func TestScatterPartitionsByPeerPreservingOrder(t *testing.T) {
	fake := &fakeRemote{}
	e := NewEngine(nil)
	e.Remote = fake
	res, err := e.QueryString(scatterSrc)
	if err != nil {
		t.Fatal(err)
	}
	if got := serialize(res); got != "a b a c b a" {
		t.Errorf("results must reassemble in original loop order, got %q", got)
	}
	if fake.dispatches != 1 {
		t.Fatalf("scatter dispatches = %d, want 1", fake.dispatches)
	}
	// Batches ordered by first appearance of each peer; iteration counts
	// match each peer's share of the loop.
	var order []string
	counts := map[string]int{}
	for _, b := range fake.batches {
		order = append(order, b.Target)
		counts[b.Target] = len(b.Iterations)
	}
	if strings.Join(order, ",") != "a,b,c" {
		t.Errorf("batch order = %v, want first-appearance order a,b,c", order)
	}
	if counts["a"] != 3 || counts["b"] != 2 || counts["c"] != 1 {
		t.Errorf("batch sizes = %v", counts)
	}
	st := e.StatsSnapshot()
	if st.ScatterWaves != 1 || st.BulkCalls != 3 {
		t.Errorf("stats waves=%d bulk=%d, want 1/3", st.ScatterWaves, st.BulkCalls)
	}
}

func TestScatterErrorIsDeterministic(t *testing.T) {
	// Both b and c fail; the surfaced error must always name b — the failed
	// peer that appears first in the loop — regardless of scheduling.
	for i := 0; i < 10; i++ {
		fake := &fakeRemote{failPeers: map[string]int{"b": 0, "c": 0}}
		e := NewEngine(nil)
		e.Remote = fake
		_, err := e.QueryString(scatterSrc)
		if err == nil {
			t.Fatal("expected error")
		}
		if !strings.Contains(err.Error(), "scatter to b") {
			t.Fatalf("error = %v, want the first failed peer (b)", err)
		}
	}
}

func TestScatterEmptyLoopSkipsDispatch(t *testing.T) {
	fake := &fakeRemote{}
	e := NewEngine(nil)
	e.Remote = fake
	res, err := e.QueryString(`
	declare function f($x as xs:string) as item()* { $x };
	for $p in () return execute at {$p} { f($p) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 || fake.dispatches != 0 {
		t.Errorf("empty loop: res=%d dispatches=%d", len(res), fake.dispatches)
	}
}

func TestScatterResultCountMismatchIsAnError(t *testing.T) {
	fake := &fakeRemote{dropLast: true}
	e := NewEngine(nil)
	e.Remote = fake
	_, err := e.QueryString(scatterSrc)
	if err == nil || !strings.Contains(err.Error(), "ended after") {
		t.Errorf("want result-count mismatch error, got %v", err)
	}
}

// TestDocSingleFlight: concurrent doc() resolutions of one URI must share a
// single resolver call and observe identical node identities.
func TestDocSingleFlight(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	e := NewEngine(ResolverFunc(func(uri string) (*xdm.Document, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return xdm.ParseString("<r/>", uri)
	}))
	const goroutines = 16
	docs := make([]*xdm.Document, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := e.Doc("u.xml")
			if err != nil {
				t.Error(err)
			}
			docs[i] = d
		}(i)
	}
	wg.Wait()
	if calls != 1 {
		t.Errorf("resolver calls = %d, want 1 (single flight)", calls)
	}
	for i := 1; i < goroutines; i++ {
		if docs[i] != docs[0] {
			t.Fatalf("goroutine %d observed a different document identity", i)
		}
	}
	if st := e.StatsSnapshot(); st.DocsResolved != 1 {
		t.Errorf("DocsResolved = %d, want 1", st.DocsResolved)
	}
}

// TestDocErrorNotCached: a failed resolution must not poison the cache.
func TestDocErrorNotCached(t *testing.T) {
	fail := true
	e := NewEngine(ResolverFunc(func(uri string) (*xdm.Document, error) {
		if fail {
			return nil, errors.New("transient")
		}
		return xdm.ParseString("<r/>", uri)
	}))
	if _, err := e.Doc("u.xml"); err == nil {
		t.Fatal("expected transient error")
	}
	fail = false
	if _, err := e.Doc("u.xml"); err != nil {
		t.Fatalf("error was cached: %v", err)
	}
}
