package xrpc

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"

	"distxq/internal/projection"
	"distxq/internal/xdm"
)

var decodedDocSeq atomic.Uint64

// ---------------------------------------------------------------- encode --

// encodeState carries the fragment table built for one message.
type encodeState struct {
	sem Semantics
	// paramUsed/paramReturned: relative projection paths per parameter
	// position (pass-by-projection requests) or a single entry for results.
	paramUsed     []projection.PathSet
	paramReturned []projection.PathSet
	projOpts      projection.Options

	frags []*fragInfo
}

// fragInfo is one fragment of the preamble.
type fragInfo struct {
	// root is the serialized fragment root: an original node (by-fragment)
	// or a projected copy (by-projection).
	root *xdm.Node
	// origDoc/origRoot identify where the fragment came from.
	origDoc *xdm.Document
	// proj maps original nodes to projected copies (by-projection only).
	proj map[*xdm.Node]*xdm.Node
	// isDoc records that the fragment root is a document node.
	isDoc bool
	// ids numbers every node below root with its canonical nodeid, built by
	// one walk on first reference so encoding n references costs O(size + n)
	// instead of O(size × n).
	ids map[*xdm.Node]int
}

// idOf returns the canonical 1-based nodeid of target within the fragment
// (0 when target is not below the fragment root), memoizing the numbering
// table on first use.
func (f *fragInfo) idOf(target *xdm.Node) int {
	if f.ids == nil {
		f.ids = make(map[*xdm.Node]int)
		idx := 0
		var walk func(n *xdm.Node, prevWasText bool)
		walk = func(n *xdm.Node, prevWasText bool) {
			// Adjacent text siblings share one nodeid: a re-parsed
			// serialization merges them.
			if !(n.Kind == xdm.TextNode && prevWasText) {
				idx++
			}
			f.ids[n] = idx
			prevText := false
			for _, c := range n.Children {
				walk(c, prevText)
				prevText = c.Kind == xdm.TextNode
			}
		}
		walk(f.root, false)
	}
	return f.ids[target]
}

// buildFragments collects every node item of every sequence and constructs
// the fragments preamble per the message semantics. seqAt(i) must yield the
// parameter position of the i-th sequence (for per-parameter projection
// paths); calls× params are flattened.
func (st *encodeState) buildFragments(seqs []xdm.Sequence, paramOf []int) error {
	if st.sem == ByValue {
		return nil
	}
	type byDocGroup struct {
		doc      *xdm.Document
		nodes    []*xdm.Node
		perParam map[int][]*xdm.Node
	}
	groups := map[*xdm.Document]*byDocGroup{}
	var order []*byDocGroup
	for si, s := range seqs {
		for _, it := range s {
			n, isNode := it.(*xdm.Node)
			if !isNode {
				continue
			}
			if n.Doc == nil {
				return fmt.Errorf("xrpc: cannot ship node %q outside a frozen document", n.Name)
			}
			g := groups[n.Doc]
			if g == nil {
				g = &byDocGroup{doc: n.Doc, perParam: map[int][]*xdm.Node{}}
				groups[n.Doc] = g
				order = append(order, g)
			}
			g.nodes = append(g.nodes, n)
			p := 0
			if paramOf != nil {
				p = paramOf[si]
			}
			g.perParam[p] = append(g.perParam[p], n)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].doc.Seq() < order[j].doc.Seq() })
	for _, g := range order {
		switch st.sem {
		case ByFragment:
			// One fragment per maximal node: a shipped node nested in
			// another shipped node reuses the outer fragment (§V).
			roots := maximalNodes(g.nodes)
			for _, r := range roots {
				st.frags = append(st.frags, &fragInfo{
					root:    r,
					origDoc: g.doc,
					isDoc:   r.Kind == xdm.DocumentNode,
				})
			}
		case ByProjection:
			// One projected fragment per source document, rooted at the LCA
			// that the projection post-processing determines.
			var used, returned []*xdm.Node
			for p, nodes := range g.perParam {
				var uPaths, rPaths projection.PathSet
				if p < len(st.paramUsed) {
					uPaths = st.paramUsed[p]
				}
				if p < len(st.paramReturned) {
					rPaths = st.paramReturned[p]
				}
				ctx := normalizeCtx(nodes)
				used = append(used, projection.EvalPaths(ctx, uPaths)...)
				returned = append(returned, projection.EvalPaths(ctx, rPaths)...)
				// Shipped nodes must exist in the fragment as reference
				// targets, but only as used nodes: whether their subtrees
				// travel is exactly what the returned paths decide (§VI —
				// "until now, when sending nodes, we had to serialize all
				// descendants").
				used = append(used, nodes...)
			}
			used = xdm.SortDocOrder(used)
			returned = xdm.SortDocOrder(returned)
			proj, err := projection.Project(used, returned, g.doc, st.projOpts)
			if err != nil {
				return err
			}
			st.frags = append(st.frags, &fragInfo{
				root:    proj.Root,
				origDoc: g.doc,
				proj:    proj.Map,
				isDoc:   proj.Root.Kind == xdm.DocumentNode,
			})
		}
	}
	return nil
}

// normalizeCtx replaces attribute nodes by their owners for path evaluation
// (projection paths navigate from elements; the attribute itself is added to
// the returned set separately by the caller).
func normalizeCtx(nodes []*xdm.Node) []*xdm.Node {
	out := make([]*xdm.Node, 0, len(nodes))
	for _, n := range nodes {
		if n.Kind == xdm.AttributeNode {
			out = append(out, n.Parent)
			continue
		}
		out = append(out, n)
	}
	return xdm.SortDocOrder(out)
}

// maximalNodes returns the nodes of set that have no proper ancestor in set,
// sorted in document order.
func maximalNodes(nodes []*xdm.Node) []*xdm.Node {
	sorted := xdm.SortDocOrder(append([]*xdm.Node(nil), nodes...))
	var out []*xdm.Node
	for _, n := range sorted {
		covered := false
		m := n
		if m.Kind == xdm.AttributeNode {
			m = m.Parent
			// an attribute is shipped via its owner element's fragment
			if m != nil {
				n = m
			}
		}
		for _, r := range out {
			if r == n || r.IsAncestorOf(n) {
				covered = true
				break
			}
		}
		if !covered {
			out = append(out, n)
		}
	}
	return out
}

// refFor locates the fragment reference of a node; ok=false means the node
// is not covered by any fragment (caller falls back to by-value copying —
// only happens for by-value semantics).
func (st *encodeState) refFor(n *xdm.Node) (fragid, nodeid int, attrName string, ok bool) {
	target := n
	if n.Kind == xdm.AttributeNode {
		attrName = n.Name
		target = n.Parent
	}
	for fi, f := range st.frags {
		if f.origDoc != target.Doc && f.proj == nil {
			continue
		}
		var within *xdm.Node
		if f.proj != nil {
			cp := f.proj[target]
			if cp == nil {
				continue
			}
			if cp != f.root && !f.root.IsAncestorOf(cp) {
				continue
			}
			within = cp
		} else {
			if f.root != target && !f.root.IsAncestorOf(target) {
				continue
			}
			within = target
		}
		id := f.idOf(within)
		if id == 0 {
			continue
		}
		return fi + 1, id, attrName, true
	}
	return 0, 0, "", false
}

// writeFragments emits the fragments preamble.
func (st *encodeState) writeFragments(sb *bytes.Buffer) {
	if len(st.frags) == 0 {
		sb.WriteString("<" + elFragments + "/>")
		return
	}
	sb.WriteString("<" + elFragments + ">")
	for _, f := range st.frags {
		uri := ""
		if f.origDoc != nil {
			uri = f.origDoc.URI
		}
		sb.WriteString("<" + elFragment)
		writeEscAttr(sb, "base-uri", uri)
		if f.isDoc {
			sb.WriteString(` kind="document"`)
		}
		sb.WriteString(">")
		_ = xdm.Serialize(sb, f.root)
		sb.WriteString("</" + elFragment + ">")
	}
	sb.WriteString("</" + elFragments + ">")
}

// writeSequence emits one xrpc:sequence for a value sequence.
func (st *encodeState) writeSequence(sb *bytes.Buffer, s xdm.Sequence) error {
	sb.WriteString("<" + elSequence + ">")
	for _, it := range s {
		switch v := it.(type) {
		case xdm.Atomic:
			writeAtomic(sb, v)
		case *xdm.Node:
			if st.sem != ByValue {
				fragid, nodeid, attrName, ok := st.refFor(v)
				if !ok {
					return fmt.Errorf("xrpc: node %s not covered by any fragment", v.Name)
				}
				sb.WriteByte('<')
				sb.WriteString(refElName(v.Kind))
				writeIntAttr(sb, "fragid", int64(fragid))
				writeIntAttr(sb, "nodeid", int64(nodeid))
				if attrName != "" {
					writeEscAttr(sb, "name", attrName)
				}
				sb.WriteString("/>")
				continue
			}
			writeValueCopy(sb, v)
		}
	}
	sb.WriteString("</" + elSequence + ">")
	return nil
}

func refElName(k xdm.Kind) string {
	switch k {
	case xdm.AttributeNode:
		return elAttribute
	case xdm.TextNode:
		return elTextNode
	case xdm.CommentNode:
		return elCommentEl
	case xdm.DocumentNode:
		return elDocumentEl
	default:
		return elElement
	}
}

// writeValueCopy serializes a deep copy of a node (pass-by-value, Fig. 1).
func writeValueCopy(sb *bytes.Buffer, n *xdm.Node) {
	base := ""
	if n.Doc != nil {
		base = n.Doc.URI
	}
	switch n.Kind {
	case xdm.AttributeNode:
		sb.WriteString("<" + elAttribute)
		writeEscAttr(sb, "name", n.Name)
		writeEscAttr(sb, "value", n.Text)
		writeEscAttr(sb, "base-uri", base)
		sb.WriteString("/>")
	case xdm.TextNode:
		writeTextEl(sb, elTextNode, n.Text)
	case xdm.CommentNode:
		writeTextEl(sb, elCommentEl, n.Text)
	case xdm.DocumentNode:
		sb.WriteString("<" + elDocumentEl)
		writeEscAttr(sb, "base-uri", base)
		sb.WriteByte('>')
		_ = xdm.Serialize(sb, n)
		sb.WriteString("</" + elDocumentEl + ">")
	default:
		sb.WriteString("<" + elElement)
		writeEscAttr(sb, "base-uri", base)
		sb.WriteByte('>')
		_ = xdm.Serialize(sb, n)
		sb.WriteString("</" + elElement + ">")
	}
}

// decodedDocURI names a document decoded from a message: prefix plus a
// process-wide sequence number, so no two decoded documents share a URI.
func decodedDocURI(prefix string) string {
	var buf [40]byte
	return string(strconv.AppendUint(append(buf[:0], prefix...), decodedDocSeq.Add(1), 10))
}

// ---------------------------------------------------------------- decode --

// decodeState resolves references against decoded fragment documents.
type decodeState struct {
	fragRoots []*xdm.Node // numbering roots, one per fragment
	fragDocs  []*xdm.Document
	// fragNodes memoizes, per fragment, the descendant-or-self sequence of
	// its numbering root (attributes excluded), built by one walk on first
	// reference so decoding n references costs O(size + n) instead of
	// O(size × n). Decoded fragments went through the parser, which already
	// merged adjacent text siblings, so plain preorder matches the encoder's
	// canonical numbering.
	fragNodes [][]*xdm.Node
}

// nodeByID resolves the 1-based nodeid within fragment frag (0-based), or nil
// when the id is out of range.
func (st *decodeState) nodeByID(frag, nodeid int) *xdm.Node {
	tbl := st.fragNodes[frag]
	if tbl == nil {
		root := st.fragRoots[frag]
		tbl = make([]*xdm.Node, 0, root.SubtreeSize())
		root.WalkDescendants(func(m *xdm.Node) bool {
			tbl = append(tbl, m)
			return true
		})
		st.fragNodes[frag] = tbl
	}
	if nodeid < 1 || nodeid > len(tbl) {
		return nil
	}
	return tbl[nodeid-1]
}

// decodeFragments parses the fragments preamble into fresh documents, in
// message order (which the encoder arranged to be original document order,
// preserving inter-fragment node ordering).
func decodeFragments(fragsEl *xdm.Node) (*decodeState, error) {
	st := &decodeState{}
	if fragsEl == nil {
		return st, nil
	}
	for _, f := range childElems(fragsEl) {
		if !nameIs(f, elFragment) {
			return nil, fmt.Errorf("xrpc: unexpected %s in fragments", f.Name)
		}
		d := xdm.NewDocument(decodedDocURI("xrpc-fragment://"))
		// Adopt the fragment subtrees instead of deep-copying them: the
		// message tree is transient and nothing reads fragment content
		// through it after this point. Freeze renumbers the adopted nodes
		// for the fresh document.
		for _, c := range f.Children {
			d.Root.AppendChild(c)
		}
		f.Children = nil
		d.Freeze()
		if base := attrOr(f, "base-uri", ""); base != "" {
			d.Root.BaseURI = base
		}
		var numberingRoot *xdm.Node
		if attrOr(f, "kind", "") == "document" {
			numberingRoot = d.Root
		} else {
			// The fragment root is the first content node; text and comment
			// nodes are legal roots (a shipped text() result).
			if len(d.Root.Children) == 0 {
				return nil, fmt.Errorf("xrpc: empty fragment")
			}
			numberingRoot = d.Root.Children[0]
		}
		st.fragRoots = append(st.fragRoots, numberingRoot)
		st.fragDocs = append(st.fragDocs, d)
	}
	st.fragNodes = make([][]*xdm.Node, len(st.fragRoots))
	return st, nil
}

// decodeSequence rebuilds one xrpc:sequence element into a value sequence.
func (st *decodeState) decodeSequence(seqEl *xdm.Node) (xdm.Sequence, error) {
	var out xdm.Sequence
	for _, item := range childElems(seqEl) {
		switch "xrpc:" + localName(item.Name) {
		case elAtomic:
			a, err := parseAtomicEl(item)
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		case elElement, elAttribute, elTextNode, elCommentEl, elDocumentEl:
			if item.Attr("fragid") != nil {
				n, err := st.resolveRef(item)
				if err != nil {
					return nil, err
				}
				out = append(out, n)
				continue
			}
			n, err := decodeValueCopy(item)
			if err != nil {
				return nil, err
			}
			out = append(out, n)
		default:
			return nil, fmt.Errorf("xrpc: unexpected sequence item %s", item.Name)
		}
	}
	return out, nil
}

func (st *decodeState) resolveRef(item *xdm.Node) (*xdm.Node, error) {
	fragid, err := strconv.Atoi(attrOr(item, "fragid", ""))
	if err != nil || fragid < 1 || fragid > len(st.fragRoots) {
		return nil, fmt.Errorf("xrpc: bad fragid %q", attrOr(item, "fragid", ""))
	}
	nodeid, err := strconv.Atoi(attrOr(item, "nodeid", ""))
	if err != nil || nodeid < 1 {
		return nil, fmt.Errorf("xrpc: bad nodeid %q", attrOr(item, "nodeid", ""))
	}
	n := st.nodeByID(fragid-1, nodeid)
	if n == nil {
		return nil, fmt.Errorf("xrpc: nodeid %d out of range in fragment %d", nodeid, fragid)
	}
	if nameIs(item, elAttribute) {
		name := attrOr(item, "name", "")
		a := n.Attr(name)
		if a == nil {
			return nil, fmt.Errorf("xrpc: referenced attribute %q missing on %s", name, n.Name)
		}
		return a, nil
	}
	return n, nil
}

// decodeValueCopy materializes a pass-by-value item as its own document
// (each parameter is a separate XML fragment — exactly the semantics whose
// consequences §II catalogues).
func decodeValueCopy(item *xdm.Node) (*xdm.Node, error) {
	base := attrOr(item, "base-uri", "")
	switch "xrpc:" + localName(item.Name) {
	case elAttribute:
		a := xdm.NewAttr(attrOr(item, "name", ""), attrOr(item, "value", ""))
		a.BaseURI = base
		return a, nil
	case elTextNode, elCommentEl:
		d := xdm.NewDocument(decodedDocURI("xrpc-value://"))
		var n *xdm.Node
		if nameIs(item, elTextNode) {
			n = xdm.NewText(item.StringValue())
		} else {
			n = xdm.NewComment(item.StringValue())
		}
		n.BaseURI = base
		d.Root.AppendChild(n)
		d.Freeze()
		return n, nil
	case elDocumentEl, elElement:
		d := xdm.NewDocument(decodedDocURI("xrpc-value://"))
		// Adopt the copied content out of the transient message tree (see
		// decodeFragments).
		for _, c := range item.Children {
			d.Root.AppendChild(c)
		}
		item.Children = nil
		d.Freeze()
		if base != "" {
			d.Root.BaseURI = base
		}
		if nameIs(item, elDocumentEl) {
			return d.Root, nil
		}
		for _, c := range d.Root.Children {
			if c.Kind == xdm.ElementNode {
				c.BaseURI = base
				return c, nil
			}
		}
		return nil, fmt.Errorf("xrpc: element copy without element content")
	}
	return nil, fmt.Errorf("xrpc: unknown copy item %s", item.Name)
}
