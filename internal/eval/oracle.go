package eval

import (
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// TreeWalk normalizes q and evaluates it eagerly on the tree-walker alone:
// the differential reference the compiled executor is held against. The
// equivalence harnesses (the compiler fuzzer, the shard and churn harnesses)
// compute their expected results with it, so a compiler bug cannot hide by
// affecting the reference and the system under test alike. Production code
// never runs a whole query this way: a compiled Program re-enters the
// tree-walker only node by node, through fnCompiler.fallback.
func TreeWalk(e *Engine, q *xq.Query) (xdm.Sequence, error) {
	if err := xq.Normalize(q); err != nil {
		return nil, err
	}
	return e.newContext(q.Funcs).eval(q.Body)
}
