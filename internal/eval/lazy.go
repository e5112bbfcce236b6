package eval

// Streaming helpers of the compiled lazy form (compileSeq): which final path
// steps may stream, and the fallible document-order axis walk a streamed step
// runs per context node.

import (
	"fmt"
	"strings"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// stepStreamable reports whether a path step can stream: at most one
// predicate, which must not observe last() (position() is fine — it
// accumulates incrementally), and a node step's axis must enumerate
// descendants of its context node only, so that ordered disjoint context
// nodes concatenate in document order. A second predicate would interleave
// with the first per candidate, where the eager form runs each predicate over
// every candidate before the next — the same items, but a different fault
// when two predicates fail on different candidates.
func stepStreamable(st *xq.Step) bool {
	if len(st.Preds) > 1 || len(st.Preds) == 1 && usesLast(st.Preds[0]) {
		return false
	}
	if st.Filter {
		return true
	}
	switch st.Axis {
	case xq.AxisChild, xq.AxisAttribute, xq.AxisSelf, xq.AxisDescendant, xq.AxisDescendantOrSelf:
		return true
	}
	return false
}

// usesLast reports whether the expression syntactically calls last().
// Declared functions cannot observe the caller's focus (callDeclared drops
// it), so scanning the predicate expression itself is sufficient. The scan is
// conservative: a last() in a nested step's own predicate (whose focus is
// that step's, not ours) also disables streaming.
func usesLast(e xq.Expr) bool {
	found := false
	xq.Walk(e, func(sub xq.Expr) bool {
		if fc, ok := sub.(*xq.FunCall); ok {
			if strings.TrimPrefix(fc.Name, "fn:") == "last" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// nodeSink consumes one candidate node of a streamed step. It returns false
// to end the walk early (consumer satisfied) and an error to abort it.
type nodeSink func(*xdm.Node) (bool, error)

// walkAxis enumerates the axis of one context node in document order,
// feeding matching nodes to the sink. It returns false when the sink ended
// the walk early. The deadline check runs per visited node — a streamed huge
// step is exactly the evaluation a budget must be able to cut mid-flight.
func (c *context) walkAxis(n *xdm.Node, axis xq.Axis, test xq.NodeTest, sink nodeSink) (bool, error) {
	emit := func(m *xdm.Node) (bool, error) {
		if err := c.stop.check(); err != nil {
			return false, err
		}
		if !matchTest(m, axis, test) {
			return true, nil
		}
		return sink(m)
	}
	switch axis {
	case xq.AxisChild:
		if n.Kind == xdm.AttributeNode {
			return true, nil
		}
		for _, ch := range n.Children {
			if cont, err := emit(ch); !cont || err != nil {
				return cont, err
			}
		}
	case xq.AxisAttribute:
		for _, a := range n.Attrs {
			if cont, err := emit(a); !cont || err != nil {
				return cont, err
			}
		}
	case xq.AxisSelf:
		return emit(n)
	case xq.AxisDescendant:
		for _, ch := range n.Children {
			if cont, err := walkSubtree(ch, emit); !cont || err != nil {
				return cont, err
			}
		}
	case xq.AxisDescendantOrSelf:
		return walkSubtree(n, emit)
	default:
		return false, fmt.Errorf("eval: axis %s is not streamable", axis)
	}
	return true, nil
}

// walkSubtree visits n and its descendants (attributes excluded) in document
// order with error/stop propagation — WalkDescendants with a fallible visitor.
func walkSubtree(n *xdm.Node, emit func(*xdm.Node) (bool, error)) (bool, error) {
	if cont, err := emit(n); !cont || err != nil {
		return cont, err
	}
	for _, ch := range n.Children {
		if cont, err := walkSubtree(ch, emit); !cont || err != nil {
			return cont, err
		}
	}
	return true, nil
}
