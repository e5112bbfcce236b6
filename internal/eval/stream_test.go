package eval

import (
	"strings"
	"testing"
)

func TestStreamScatterReassemblesLoopOrder(t *testing.T) {
	for _, split := range []int{1, 2, 100} {
		fake := &fakeRemote{splitAt: split}
		e := NewEngine(nil)
		e.Remote = fake
		res, err := e.QueryString(scatterSrc)
		if err != nil {
			t.Fatal(err)
		}
		if got := serialize(res); got != "a b a c b a" {
			t.Errorf("split %d: results must reassemble in loop order, got %q", split, got)
		}
		if !fake.cancelled {
			t.Errorf("split %d: consumer must release the dispatch via cancel()", split)
		}
		st := e.StatsSnapshot()
		if st.ScatterWaves != 1 {
			t.Errorf("split %d: stats = %+v, want one scatter wave", split, st)
		}
	}
}

// TestStreamScatterSplitsItemRuns: a single iteration whose result spans
// many chunks must concatenate byte-identically.
func TestStreamScatterSplitsItemRuns(t *testing.T) {
	fake := &fakeRemote{splitAt: 1}
	e := NewEngine(nil)
	e.Remote = fake
	res, err := e.QueryString(`
	declare function f() as item()* { (1, 2, 3, 4, 5) };
	for $p in ("a") return execute at {$p} { f() }`)
	if err != nil {
		t.Fatal(err)
	}
	if got := serialize(res); got != "1 2 3 4 5" {
		t.Errorf("item runs must concatenate in order, got %q", got)
	}
}

func TestStreamScatterEmptyIteration(t *testing.T) {
	fake := &fakeRemote{splitAt: 2}
	e := NewEngine(nil)
	e.Remote = fake
	res, err := e.QueryString(`
	declare function f($x as xs:string) as item()* { if ($x = "b") then () else $x };
	for $p in ("a", "b", "a") return execute at {$p} { f($p) }`)
	if err != nil {
		t.Fatal(err)
	}
	if got := serialize(res); got != "a a" {
		t.Errorf("empty iterations must vanish in place, got %q", got)
	}
}

// TestStreamScatterErrorDeterministic: the reported failure is the lane
// whose earliest unfinished loop iteration comes first, and the dispatch is
// always released via cancel().
func TestStreamScatterErrorDeterministic(t *testing.T) {
	for i := 0; i < 25; i++ {
		fake := &fakeRemote{splitAt: 1, failPeers: map[string]int{"b": 0, "c": 0}}
		e := NewEngine(nil)
		e.Remote = fake
		_, err := e.QueryString(scatterSrc)
		if err == nil || !strings.Contains(err.Error(), "scatter to b") {
			t.Fatalf("error = %v, want failure naming peer b (first failing loop position)", err)
		}
		if !fake.cancelled {
			t.Fatal("error path must release the dispatch via cancel()")
		}
	}
}

// TestStreamScatterMidLaneFailure: a lane that fails after delivering some
// iterations surfaces its error when the loop reaches the failed iteration.
func TestStreamScatterMidLaneFailure(t *testing.T) {
	fake := &fakeRemote{splitAt: 1, failPeers: map[string]int{"a": 2}}
	e := NewEngine(nil)
	e.Remote = fake
	_, err := e.QueryString(scatterSrc) // "a" appears at loop positions 0, 2, 5
	if err == nil || !strings.Contains(err.Error(), "scatter to a") {
		t.Fatalf("error = %v, want failure naming peer a", err)
	}
}

func TestStreamScatterSkippedIterationRejected(t *testing.T) {
	fake := &fakeRemote{splitAt: 1, skipIteration: true}
	e := NewEngine(nil)
	e.Remote = fake
	_, err := e.QueryString(scatterSrc)
	if err == nil || !strings.Contains(err.Error(), "skipped") {
		t.Fatalf("error = %v, want skipped-iteration protocol error", err)
	}
}
