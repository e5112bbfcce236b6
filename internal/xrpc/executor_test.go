package xrpc

import (
	"testing"
	"time"

	"distxq/internal/eval"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// TestOneExecutor pins the one-executor contract: every evaluation entry
// point — the engine's four and the server's two — lowers the query it runs
// to a compiled Program. Where the caller owns the query, the Program must
// sit on its CompiledArtifact; the server keeps the queries of shipped
// modules inside its module cache, so there the engine's compile counter is
// the evidence (it counts exactly the lowerings that attach a fresh
// artifact). The counter also pins the cache's contract: a module shipped
// again is compiled once, whichever entry point serves it, while modules
// seen only once are compiled each and never admitted.
func TestOneExecutor(t *testing.T) {
	const module = `declare function f($x as item()*) as item()* { for $i in $x return $i * 2 };`
	args := []xdm.Sequence{{xdm.NewInteger(1), xdm.NewInteger(2), xdm.NewInteger(3)}}
	parse := func(t *testing.T, src string) *xq.Query {
		t.Helper()
		q, err := xq.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	drain := func(t *testing.T, s xdm.Seq, err error) {
		t.Helper()
		if err == nil {
			_, err = s.Materialize()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	request := incrementalRequest(t, `for $i in (1, 2, 3) return $i * 2`)
	cases := []struct {
		name string
		// run executes one query through the entry point and returns it, or
		// nil when the entry point parses its own.
		run func(t *testing.T, e *eval.Engine) *xq.Query
	}{
		{"Engine.Query", func(t *testing.T, e *eval.Engine) *xq.Query {
			q := parse(t, `for $i in (1, 2, 3) return $i * 2`)
			if _, err := e.Query(q); err != nil {
				t.Fatal(err)
			}
			return q
		}},
		{"Engine.QuerySeq", func(t *testing.T, e *eval.Engine) *xq.Query {
			q := parse(t, `for $i in (1, 2, 3) return $i * 2`)
			s, err := e.QuerySeq(q)
			drain(t, s, err)
			return q
		}},
		{"Engine.EvalFunctionDeadline", func(t *testing.T, e *eval.Engine) *xq.Query {
			q := parse(t, module+"\n0")
			if _, err := e.EvalFunctionDeadline(q, "f", args, nil, time.Time{}); err != nil {
				t.Fatal(err)
			}
			return q
		}},
		{"Engine.EvalFunctionSeqDeadline", func(t *testing.T, e *eval.Engine) *xq.Query {
			q := parse(t, module+"\n0")
			s, err := e.EvalFunctionSeqDeadline(q, "f", args, nil, time.Time{})
			drain(t, s, err)
			return q
		}},
		{"Server.Handle", func(t *testing.T, e *eval.Engine) *xq.Query {
			if _, err := (&Server{Engine: e}).Handle(request); err != nil {
				t.Fatal(err)
			}
			return nil
		}},
		{"Server.HandleStream", func(t *testing.T, e *eval.Engine) *xq.Query {
			if err := (&Server{Engine: e}).HandleStream(request, func([]byte) error { return nil }); err != nil {
				t.Fatal(err)
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := eval.NewEngine(nil)
			if q := tc.run(t, e); q != nil {
				if _, ok := q.CompiledArtifact().(*eval.Program); !ok {
					t.Errorf("executed query carries %T, want *eval.Program", q.CompiledArtifact())
				}
			}
			if n := e.StatsSnapshot().Compilations; n != 1 {
				t.Errorf("%d compilations, want 1", n)
			}
		})
	}
	t.Run("Server module cache", func(t *testing.T) {
		e := eval.NewEngine(nil)
		srv := &Server{Engine: e}
		for i := 0; i < 3; i++ {
			var err error
			if i == 1 {
				err = srv.HandleStream(request, func([]byte) error { return nil })
			} else {
				_, err = srv.Handle(request)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if n := e.StatsSnapshot().Compilations; n != 1 {
			t.Errorf("one module in three requests: %d compilations, want 1", n)
		}
		if n, _ := srv.modules.size(); n != 1 {
			t.Errorf("one module in three requests: %d admitted entries, want 1", n)
		}

		e = eval.NewEngine(nil)
		srv = &Server{Engine: e}
		for _, k := range []string{"2", "3", "4"} {
			if _, err := srv.Handle(incrementalRequest(t, `for $i in (1, 2, 3) return $i * `+k)); err != nil {
				t.Fatal(err)
			}
		}
		if n := e.StatsSnapshot().Compilations; n != 3 {
			t.Errorf("three distinct modules: %d compilations, want 3", n)
		}
		if n, _ := srv.modules.size(); n != 0 {
			t.Errorf("three modules seen once: %d admitted entries, want 0", n)
		}
	})
}
