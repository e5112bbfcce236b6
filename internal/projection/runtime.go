package projection

import (
	"fmt"

	"distxq/internal/eval"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// Projected is the outcome of projecting a document: a fresh frozen document
// D′ holding the pruned copy, the post-processed root (the LCA of the
// projection nodes), and the original→copy node mapping needed to translate
// fragment references.
type Projected struct {
	Doc  *xdm.Document
	Root *xdm.Node
	Map  map[*xdm.Node]*xdm.Node
}

// Options tune the projection (schema-aware variant of §VI-B).
type Options struct {
	// KeepAllAttributes retains every attribute of kept elements, not just
	// the attributes in the projection node sets. XRPC's schema-respecting
	// mode uses this to avoid dropping mandatory attributes.
	KeepAllAttributes bool
	// SchemaKeep, when non-nil, reports elements that must not be pruned
	// even when outside the projection sets (the minOccurs>0 rule).
	SchemaKeep func(*xdm.Node) bool
}

// Project implements Algorithm 1 (RUNTIMEXMLPROJECTION): given the used node
// set U and returned node set R (both within doc), it computes the projected
// document D′ containing all used and returned nodes, the descendants of
// returned nodes, their ancestors, and nothing else; post-processing trims
// ancestors above the lowest common ancestor of the projection nodes.
func Project(used, returned []*xdm.Node, doc *xdm.Document, opt Options) (*Projected, error) {
	for _, n := range append(append([]*xdm.Node(nil), used...), returned...) {
		if n.Doc != doc {
			return nil, fmt.Errorf("projection: node %s not in document %s", n.Name, doc.URI)
		}
	}
	isReturned := map[*xdm.Node]bool{}
	for _, n := range returned {
		isReturned[n] = true
	}
	// Attribute projection nodes are not visited by the tree cursor (the
	// descendant walk excludes attributes); record them separately and use
	// their owner elements as used surrogates in P.
	keepAttr := map[*xdm.Node]bool{}
	inP := map[*xdm.Node]bool{}
	var P []*xdm.Node
	addP := func(n *xdm.Node) {
		if n.Kind == xdm.AttributeNode {
			keepAttr[n] = true
			n = n.Parent
		}
		if !inP[n] {
			inP[n] = true
			P = append(P, n)
		}
	}
	for _, n := range used {
		addP(n)
	}
	for _, n := range returned {
		if n.Kind == xdm.AttributeNode {
			keepAttr[n] = true
			if !inP[n.Parent] {
				inP[n.Parent] = true
				P = append(P, n.Parent)
			}
			continue
		}
		addP(n)
	}
	P = xdm.SortDocOrder(P)

	// The cursor phase of Algorithm 1: walk cur through the document in
	// document order; selected accumulates D′ membership. subtree marks the
	// returned nodes whose entire subtree joins D′.
	selected := map[*xdm.Node]bool{}
	subtree := map[*xdm.Node]bool{}
	pi := 0
	cur := doc.Root
	for pi < len(P) && cur != nil {
		proj := P[pi]
		switch {
		case cur.IsAncestorOf(proj): // proj is a descendant of cur
			selected[cur] = true
			cur = cur.NextInDocument()
		case proj == cur:
			selected[cur] = true
			if isReturned[cur] {
				subtree[cur] = true // cur and all descendants join D′
				ret := cur
				cur = cur.Following()
				// prune projection nodes inside the subtree just added
				for pi+1 < len(P) && ret.IsAncestorOf(P[pi+1]) {
					pi++
				}
			} else {
				cur = cur.NextInDocument()
			}
			pi++
		default:
			// proj is not inside cur's subtree: skip the subtree.
			cur = cur.Following()
		}
	}
	if pi < len(P) {
		return nil, fmt.Errorf("projection: cursor missed %d projection nodes (input not in document order?)", len(P)-pi)
	}

	// Build the copy of the selected forest.
	out := &Projected{Map: map[*xdm.Node]*xdm.Node{}}
	d := xdm.NewDocument(doc.URI + "#projected")
	out.Doc = d
	var build func(orig *xdm.Node, parent *xdm.Node, inSubtree bool)
	build = func(orig, parent *xdm.Node, inSubtree bool) {
		keep := inSubtree || selected[orig] || (opt.SchemaKeep != nil && opt.SchemaKeep(orig) && selected[orig.Parent])
		if !keep {
			return
		}
		var cp *xdm.Node
		if orig.Kind == xdm.DocumentNode {
			cp = parent // the fresh document node stands in for the original
		} else {
			cp = &xdm.Node{Kind: orig.Kind, Name: orig.Name, Text: orig.Text, BaseURI: orig.BaseURI}
			parent.AppendChild(cp)
		}
		out.Map[orig] = cp
		for _, a := range orig.Attrs {
			if inSubtree || subtree[orig] || keepAttr[a] || opt.KeepAllAttributes {
				ca := xdm.NewAttr(a.Name, a.Text)
				ca.Parent = cp
				cp.Attrs = append(cp.Attrs, ca)
				out.Map[a] = ca
			}
		}
		for _, c := range orig.Children {
			build(c, cp, inSubtree || subtree[orig])
		}
	}
	build(doc.Root, d.Root, false)

	// Post-processing (lines 24–27): descend from the root while the chain
	// has a single child and the current node is not itself a projection
	// node, leaving the lowest common ancestor as the projected root.
	isProj := func(orig *xdm.Node) bool {
		return inP[orig] || keepAttr[orig]
	}
	curO := doc.Root
	for {
		cp := out.Map[curO]
		if cp == nil {
			break
		}
		if isProj(curO) || len(cp.Children) != 1 {
			break
		}
		// move to the unique kept child
		var nextO *xdm.Node
		for _, c := range curO.Children {
			if out.Map[c] != nil {
				nextO = c
				break
			}
		}
		if nextO == nil {
			break
		}
		curO = nextO
	}
	root := out.Map[curO]
	if root == nil {
		root = d.Root
	}
	if root != d.Root {
		// Reparent the trimmed root directly under the document node.
		d.Root.Children = []*xdm.Node{root}
		root.Parent = d.Root
	}
	d.Freeze()
	out.Root = root
	return out, nil
}

// EvalPaths evaluates relative projection paths over a context node
// sequence, returning the union of their results in document order. root()
// jumps to tree roots; id()/idref() conservatively select every element
// carrying an ID (resp. IDREF) attribute in the tree, per §VI-B.
func EvalPaths(ctx []*xdm.Node, paths PathSet) []*xdm.Node {
	var out []*xdm.Node
	for _, p := range paths {
		cur := append([]*xdm.Node(nil), ctx...)
		for _, st := range p.Steps {
			var next []*xdm.Node
			ordered := false
			switch st.Fn {
			case FnRoot:
				for _, n := range cur {
					next = append(next, n.RootNode())
				}
			case FnID:
				next = append(next, idBearingElements(cur, []string{"id", "xml:id"})...)
			case FnIDRef:
				next = append(next, idBearingElements(cur, []string{"idref", "idrefs"})...)
			default:
				// The evaluator's streaming precondition applies here too:
				// when the context is ordered and subtree-disjoint and the
				// axis only descends, per-node segments concatenate already
				// strictly increasing, so the sort pass can be skipped.
				// Streamed responses project every chunk independently, which
				// puts this loop on the per-frame hot path.
				ordered = downwardAxis(st.Axis) && xdm.OrderedDisjointNodes(cur)
				for _, n := range cur {
					next = append(next, eval.AxisNodes(n, st.Axis, st.Test)...)
				}
			}
			if ordered {
				cur = next
				continue
			}
			cur = xdm.SortDocOrder(next)
		}
		out = append(out, cur...)
	}
	return xdm.SortDocOrder(out)
}

// downwardAxis reports whether the axis selects only nodes within the
// context node's subtree (attributes included): the per-context-node result
// segments of such a step inherit document order from an ordered-disjoint
// context.
func downwardAxis(a xq.Axis) bool {
	switch a {
	case xq.AxisChild, xq.AxisAttribute, xq.AxisSelf, xq.AxisDescendant, xq.AxisDescendantOrSelf:
		return true
	}
	return false
}

func idBearingElements(ctx []*xdm.Node, attrNames []string) []*xdm.Node {
	var out []*xdm.Node
	seenRoot := map[*xdm.Node]bool{}
	for _, n := range ctx {
		root := n.RootNode()
		if seenRoot[root] {
			continue
		}
		seenRoot[root] = true
		root.WalkDescendants(func(m *xdm.Node) bool {
			for _, an := range attrNames {
				if m.Attr(an) != nil {
					out = append(out, m)
					return true
				}
			}
			return true
		})
	}
	return out
}
