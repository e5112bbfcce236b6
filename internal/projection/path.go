// Package projection implements the extended XML projection machinery of
// §VI: the ProjectionPath grammar of Table V (with reverse/horizontal axes
// and the root()/id()/idref() pseudo-steps), compile-time path analysis with
// the DOC1/DOC2/ROOT/ID rules, relative-suffix extraction (allSuffixes), the
// runtime projection algorithm (Algorithm 1), and a compile-time projection
// baseline in the style of Marian & Siméon used by the Figure 10/11
// experiments.
//
// The runtime technique composes with incremental (chunked) response
// streaming: every stream frame is self-contained, so RuntimeProject runs
// per chunk over just that chunk's items, and its projected fragment ships
// inside the frame. Peak projection state is therefore bounded by a frame's
// item budget, not by a call's full result; EvalPaths keeps the per-frame
// cost down by skipping the document-order sort whenever a step's context is
// ordered and subtree-disjoint (the evaluator's streaming precondition).
package projection

import (
	"fmt"
	"strings"

	"distxq/internal/xq"
)

// FnKind marks the built-in-function pseudo-steps of Table V.
type FnKind uint8

// Pseudo-step kinds.
const (
	FnNone FnKind = iota
	FnRoot
	FnID
	FnIDRef
)

func (k FnKind) String() string {
	switch k {
	case FnRoot:
		return "root()"
	case FnID:
		return "id()"
	case FnIDRef:
		return "idref()"
	}
	return ""
}

// PStep is one step of a projection path: either an axis step or a built-in
// function pseudo-step (root()/id()/idref()).
type PStep struct {
	Axis xq.Axis
	Test xq.NodeTest
	Fn   FnKind
}

// String renders the step in Table V syntax.
func (s PStep) String() string {
	if s.Fn != FnNone {
		return s.Fn.String()
	}
	return fmt.Sprintf("%s::%s", s.Axis, s.Test)
}

// Path is a projection path. Absolute paths carry a Doc prefix
// doc(uri::vertex); relative paths (suffixes applied to a runtime context
// sequence) have Doc == nil.
type Path struct {
	Doc   *DocID
	Steps []PStep
}

// DocID identifies one fn:doc() application: the URI (or "*" for computed
// URIs) tagged with the d-graph vertex where the document is opened, exactly
// the uri::vertex notation of §IV.
type DocID struct {
	URI    string
	Vertex int
}

// String renders doc("uri"::"v").
func (d DocID) String() string { return fmt.Sprintf("doc(%q::%q)", d.URI, fmt.Sprint(d.Vertex)) }

// String renders the path in the grammar of Table V.
func (p Path) String() string {
	var sb strings.Builder
	if p.Doc != nil {
		sb.WriteString(p.Doc.String())
	}
	for i, s := range p.Steps {
		if i > 0 || p.Doc != nil {
			sb.WriteString("/")
		}
		sb.WriteString(s.String())
	}
	if p.Doc == nil && len(p.Steps) == 0 {
		sb.WriteString("self::node()")
	}
	return sb.String()
}

// Equal reports structural equality.
func (p Path) Equal(q Path) bool {
	if (p.Doc == nil) != (q.Doc == nil) {
		return false
	}
	if p.Doc != nil && *p.Doc != *q.Doc {
		return false
	}
	if len(p.Steps) != len(q.Steps) {
		return false
	}
	for i := range p.Steps {
		if p.Steps[i] != q.Steps[i] {
			return false
		}
	}
	return true
}

// Append returns p extended with a step.
func (p Path) Append(s PStep) Path {
	steps := make([]PStep, 0, len(p.Steps)+1)
	steps = append(steps, p.Steps...)
	steps = append(steps, s)
	return Path{Doc: p.Doc, Steps: steps}
}

// HasPrefix reports whether q is a step-prefix of p (same Doc).
func (p Path) HasPrefix(q Path) bool {
	if (p.Doc == nil) != (q.Doc == nil) {
		return false
	}
	if p.Doc != nil && *p.Doc != *q.Doc {
		return false
	}
	if len(q.Steps) > len(p.Steps) {
		return false
	}
	for i := range q.Steps {
		if p.Steps[i] != q.Steps[i] {
			return false
		}
	}
	return true
}

// Suffix returns the relative path of p after the prefix q.
func (p Path) Suffix(q Path) Path {
	return Path{Steps: append([]PStep(nil), p.Steps[len(q.Steps):]...)}
}

// PathSet is a set of projection paths.
type PathSet []Path

// Add inserts a path if not already present.
func (ps PathSet) Add(p Path) PathSet {
	for _, q := range ps {
		if q.Equal(p) {
			return ps
		}
	}
	return append(ps, p)
}

// Union merges path sets.
func (ps PathSet) Union(qs PathSet) PathSet {
	out := ps
	for _, q := range qs {
		out = out.Add(q)
	}
	return out
}

// String renders the set for golden tests.
func (ps PathSet) String() string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// AllSuffixes implements allSuffixes(Pathsi, Pathsj) of §VI-B: the relative
// suffixes of paths in pj with respect to prefixes in pi.
func AllSuffixes(pi, pj PathSet) PathSet {
	var out PathSet
	for _, p := range pj {
		for _, q := range pi {
			if p.HasPrefix(q) {
				out = out.Add(p.Suffix(q))
			}
		}
	}
	return out
}

// ParsePath parses the Table V grammar, e.g.
// `doc("u"::"3")/child::a/parent::b/root()` or a relative
// `child::seller/attribute::person`.
func ParsePath(s string) (Path, error) {
	s = strings.TrimSpace(s)
	var p Path
	if strings.HasPrefix(s, "doc(") {
		end := strings.Index(s, ")")
		if end < 0 {
			return Path{}, fmt.Errorf("projection: unterminated doc( in %q", s)
		}
		inner := s[4:end]
		sep := strings.Index(inner, "::")
		if sep < 0 {
			return Path{}, fmt.Errorf("projection: doc id needs uri::vertex in %q", s)
		}
		uri := strings.Trim(inner[:sep], `"`)
		var vertex int
		if _, err := fmt.Sscanf(strings.Trim(inner[sep+2:], `"`), "%d", &vertex); err != nil {
			return Path{}, fmt.Errorf("projection: bad vertex id in %q", s)
		}
		p.Doc = &DocID{URI: uri, Vertex: vertex}
		s = strings.TrimPrefix(s[end+1:], "/")
	}
	if s == "" {
		return p, nil
	}
	for _, part := range strings.Split(s, "/") {
		part = strings.TrimSpace(part)
		switch part {
		case "root()":
			p.Steps = append(p.Steps, PStep{Fn: FnRoot})
			continue
		case "id()":
			p.Steps = append(p.Steps, PStep{Fn: FnID})
			continue
		case "idref()":
			p.Steps = append(p.Steps, PStep{Fn: FnIDRef})
			continue
		case "":
			return Path{}, fmt.Errorf("projection: empty step in %q", s)
		}
		sep := strings.Index(part, "::")
		if sep < 0 {
			return Path{}, fmt.Errorf("projection: step %q lacks axis", part)
		}
		axis, ok := xq.ParseAxis(part[:sep])
		if !ok {
			return Path{}, fmt.Errorf("projection: unknown axis in %q", part)
		}
		testStr := part[sep+2:]
		var test xq.NodeTest
		switch testStr {
		case "*":
			test = xq.NodeTest{Kind: xq.TestWildcard}
		case "node()":
			test = xq.NodeTest{Kind: xq.TestAnyNode}
		case "text()":
			test = xq.NodeTest{Kind: xq.TestText}
		case "comment()":
			test = xq.NodeTest{Kind: xq.TestComment}
		default:
			test = xq.NodeTest{Kind: xq.TestName, Name: testStr}
		}
		p.Steps = append(p.Steps, PStep{Axis: axis, Test: test})
	}
	return p, nil
}
