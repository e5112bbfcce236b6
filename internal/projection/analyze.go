package projection

import (
	"fmt"

	"distxq/internal/xq"
)

// Analysis holds per-expression path annotations:
// Env(vi) ⊢ Expr ⇒ Returned using Used (§VI-A).
type Analysis struct {
	// Returned maps an expression vertex to its returned paths (nodes the
	// expression may return; loading preserves their descendants).
	Returned map[xq.Expr]PathSet
	// Used maps an expression vertex to its used paths (nodes needed but not
	// returned; loading preserves the node itself only).
	Used map[xq.Expr]PathSet
	// Vertex assigns stable pre-order ids, used to tag fn:doc applications
	// (the uri::vertex notation) and element constructors (doc(vi::vi)).
	Vertex map[xq.Expr]int
	// ParamReturned records, for every XRPCParam of every XRPCExpr, the
	// returned paths of the referenced outer variable — R(vparam) in §VI-B.
	ParamReturned map[*xq.XRPCParam]PathSet

	funcs   map[string]*xq.FuncDecl
	nextVid int
}

// env carries variable bindings (name → returned paths of the binding) and
// the context-item paths used inside predicates.
type env struct {
	vars map[string]PathSet
	ctx  PathSet
}

func (e env) bind(name string, ps PathSet) env {
	nv := make(map[string]PathSet, len(e.vars)+1)
	for k, v := range e.vars {
		nv[k] = v
	}
	nv[name] = ps
	return env{vars: nv, ctx: e.ctx}
}

func (e env) withCtx(ps PathSet) env { return env{vars: e.vars, ctx: ps} }

// Analyze runs path analysis over a whole query. Declared functions are
// analyzed at their call sites with the actual argument paths (the analysis
// is monovariant per call, which is precise and terminates because shipped
// functions are non-recursive).
func Analyze(q *xq.Query) (*Analysis, error) {
	a := &Analysis{
		Returned:      map[xq.Expr]PathSet{},
		Used:          map[xq.Expr]PathSet{},
		Vertex:        map[xq.Expr]int{},
		ParamReturned: map[*xq.XRPCParam]PathSet{},
		funcs:         map[string]*xq.FuncDecl{},
	}
	for _, f := range q.Funcs {
		a.funcs[fmt.Sprintf("%s/%d", f.Name, len(f.Params))] = f
	}
	_, _, err := a.analyze(q.Body, env{vars: map[string]PathSet{}}, map[string]bool{})
	return a, err
}

func (a *Analysis) vid(e xq.Expr) int {
	if v, ok := a.Vertex[e]; ok {
		return v
	}
	a.nextVid++
	a.Vertex[e] = a.nextVid
	return a.nextVid
}

// subtreeOf widens every path to keep the full subtree below it; used when
// node content is atomized or copied.
func subtreeOf(ps PathSet) PathSet {
	var out PathSet
	for _, p := range ps {
		out = out.Add(p.Append(PStep{Axis: xq.AxisDescendantOrSelf, Test: xq.NodeTest{Kind: xq.TestAnyNode}}))
	}
	return out
}

// analyze returns (returned, used) for e and records them.
func (a *Analysis) analyze(e xq.Expr, en env, inProgress map[string]bool) (PathSet, PathSet, error) {
	r, u, err := a.analyze1(e, en, inProgress)
	if err != nil {
		return nil, nil, err
	}
	if e != nil {
		a.Returned[e] = a.Returned[e].Union(r)
		a.Used[e] = a.Used[e].Union(u)
	}
	return r, u, nil
}

func (a *Analysis) analyze1(e xq.Expr, en env, inProgress map[string]bool) (PathSet, PathSet, error) {
	switch v := e.(type) {
	case nil, *xq.Literal:
		return nil, nil, nil
	case *xq.VarRef:
		return en.vars[v.Name], nil, nil
	case *xq.ContextItem:
		return en.ctx, nil, nil
	case *xq.RootExpr:
		var r PathSet
		for _, p := range en.ctx {
			r = r.Add(p.Append(PStep{Fn: FnRoot}))
		}
		return r, nil, nil
	case *xq.SeqExpr:
		var r, u PathSet
		for _, it := range v.Items {
			ri, ui, err := a.analyze(it, en, inProgress)
			if err != nil {
				return nil, nil, err
			}
			r, u = r.Union(ri), u.Union(ui)
		}
		return r, u, nil
	case *xq.ForExpr:
		rin, uin, err := a.analyze(v.In, en, inProgress)
		if err != nil {
			return nil, nil, err
		}
		en2 := en.bind(v.Var, rin)
		u := uin.Union(rin) // iterated nodes are at least used
		for _, spec := range v.OrderBy {
			rk, uk, err := a.analyze(spec.Key, en2, inProgress)
			if err != nil {
				return nil, nil, err
			}
			u = u.Union(subtreeOf(rk)).Union(uk) // keys are atomized
		}
		rret, uret, err := a.analyze(v.Return, en2, inProgress)
		if err != nil {
			return nil, nil, err
		}
		return rret, u.Union(uret), nil
	case *xq.LetExpr:
		rb, ub, err := a.analyze(v.Bind, en, inProgress)
		if err != nil {
			return nil, nil, err
		}
		rret, uret, err := a.analyze(v.Return, en.bind(v.Var, rb), inProgress)
		if err != nil {
			return nil, nil, err
		}
		return rret, ub.Union(uret), nil
	case *xq.IfExpr:
		rc, uc, err := a.analyze(v.Cond, en, inProgress)
		if err != nil {
			return nil, nil, err
		}
		rt, ut, err := a.analyze(v.Then, en, inProgress)
		if err != nil {
			return nil, nil, err
		}
		re, ue, err := a.analyze(v.Else, en, inProgress)
		if err != nil {
			return nil, nil, err
		}
		u := subtreeOf(rc).Union(uc).Union(ut).Union(ue)
		return rt.Union(re), u, nil
	case *xq.QuantifiedExpr:
		rin, uin, err := a.analyze(v.In, en, inProgress)
		if err != nil {
			return nil, nil, err
		}
		rs, us, err := a.analyze(v.Satisfies, en.bind(v.Var, rin), inProgress)
		if err != nil {
			return nil, nil, err
		}
		return nil, uin.Union(rin).Union(subtreeOf(rs)).Union(us), nil
	case *xq.TypeswitchExpr:
		rop, uop, err := a.analyze(v.Operand, en, inProgress)
		if err != nil {
			return nil, nil, err
		}
		r := PathSet(nil)
		u := uop.Union(rop)
		for _, c := range v.Cases {
			en2 := en
			if c.Var != "" {
				en2 = en.bind(c.Var, rop)
			}
			rc, ucs, err := a.analyze(c.Return, en2, inProgress)
			if err != nil {
				return nil, nil, err
			}
			r, u = r.Union(rc), u.Union(ucs)
		}
		en2 := en
		if v.DefaultVar != "" {
			en2 = en.bind(v.DefaultVar, rop)
		}
		rd, ud, err := a.analyze(v.Default, en2, inProgress)
		if err != nil {
			return nil, nil, err
		}
		return r.Union(rd), u.Union(ud), nil
	case *xq.CompareExpr, *xq.ArithExpr, *xq.LogicExpr:
		var r, u PathSet
		for _, c := range xq.Children(e) {
			rc, uc, err := a.analyze(c, en, inProgress)
			if err != nil {
				return nil, nil, err
			}
			r, u = r.Union(subtreeOf(rc)), u.Union(uc)
		}
		return nil, r.Union(u), nil
	case *xq.UnaryExpr:
		rc, uc, err := a.analyze(v.Operand, en, inProgress)
		if err != nil {
			return nil, nil, err
		}
		return nil, subtreeOf(rc).Union(uc), nil
	case *xq.NodeSetExpr:
		rl, ul, err := a.analyze(v.Left, en, inProgress)
		if err != nil {
			return nil, nil, err
		}
		rr, ur, err := a.analyze(v.Right, en, inProgress)
		if err != nil {
			return nil, nil, err
		}
		return rl.Union(rr), ul.Union(ur), nil
	case *xq.PathExpr:
		return a.analyzePath(v, en, inProgress)
	case *xq.ElemConstructor, *xq.AttrConstructor, *xq.TextConstructor, *xq.DocConstructor:
		vid := a.vid(e)
		var u PathSet
		for _, c := range xq.Children(e) {
			rc, uc, err := a.analyze(c, en, inProgress)
			if err != nil {
				return nil, nil, err
			}
			// Copied content needs its whole subtree preserved.
			u = u.Union(subtreeOf(rc)).Union(uc)
		}
		r := PathSet{}.Add(Path{Doc: &DocID{URI: fmt.Sprintf("v%d", vid), Vertex: vid}})
		return r, u, nil
	case *xq.FunCall:
		return a.analyzeCall(v, en, inProgress)
	case *xq.ExecuteAt:
		return nil, nil, fmt.Errorf("projection: unnormalized execute-at in analysis")
	case *xq.XRPCExpr:
		rt, ut, err := a.analyze(v.Target, en, inProgress)
		if err != nil {
			return nil, nil, err
		}
		en2 := env{vars: map[string]PathSet{}, ctx: nil}
		for _, p := range v.Params {
			pr := en.vars[p.Ref]
			a.ParamReturned[p] = a.ParamReturned[p].Union(pr)
			en2.vars[p.Name] = pr
		}
		rb, ub, err := a.analyze(v.Body, en2, inProgress)
		if err != nil {
			return nil, nil, err
		}
		return rb, subtreeOf(rt).Union(ut).Union(ub), nil
	}
	return nil, nil, fmt.Errorf("projection: unsupported expression %T", e)
}

func (a *Analysis) analyzePath(pe *xq.PathExpr, en env, inProgress map[string]bool) (PathSet, PathSet, error) {
	var cur, u PathSet
	if pe.Input != nil {
		r0, u0, err := a.analyze(pe.Input, en, inProgress)
		if err != nil {
			return nil, nil, err
		}
		cur, u = r0, u0
	} else {
		cur = en.ctx
	}
	for _, st := range pe.Steps {
		if !st.Filter {
			u = u.Union(cur) // traversed context nodes are used
			var next PathSet
			for _, p := range cur {
				next = next.Add(p.Append(PStep{Axis: st.Axis, Test: st.Test}))
			}
			cur = next
		}
		for _, pred := range st.Preds {
			rp, up, err := a.analyze(pred, en.withCtx(cur), inProgress)
			if err != nil {
				return nil, nil, err
			}
			u = u.Union(subtreeOf(rp)).Union(up)
		}
	}
	return cur, u, nil
}

func (a *Analysis) analyzeCall(fc *xq.FunCall, en env, inProgress map[string]bool) (PathSet, PathSet, error) {
	argR := make([]PathSet, len(fc.Args))
	argU := make([]PathSet, len(fc.Args))
	for i, arg := range fc.Args {
		r, u, err := a.analyze(arg, en, inProgress)
		if err != nil {
			return nil, nil, err
		}
		argR[i], argU[i] = r, u
	}
	key := fmt.Sprintf("%s/%d", fc.Name, len(fc.Args))
	if fd, declared := a.funcs[key]; declared {
		if inProgress[key] {
			// Recursive user function: conservatively keep whole documents.
			var u PathSet
			for i := range fc.Args {
				u = u.Union(subtreeOf(argR[i])).Union(argU[i])
			}
			return nil, u, nil
		}
		inProgress[key] = true
		defer delete(inProgress, key)
		en2 := env{vars: map[string]PathSet{}}
		var u PathSet
		for i, p := range fd.Params {
			en2.vars[p.Name] = argR[i]
			u = u.Union(argU[i])
		}
		rb, ub, err := a.analyze(fd.Body, en2, inProgress)
		if err != nil {
			return nil, nil, err
		}
		return rb, u.Union(ub), nil
	}
	name := trimFn(fc.Name)
	switch name {
	case "doc", "collection":
		vid := a.vid(fc)
		uri := "*"
		if name == "doc" && len(fc.Args) == 1 {
			if lit, isLit := fc.Args[0].(*xq.Literal); isLit {
				uri = lit.Val.ItemString()
			}
		}
		// DOC1 for literal URIs, DOC2 (wildcard + args used) otherwise.
		var u PathSet
		if uri == "*" {
			for i := range fc.Args {
				u = u.Union(argR[i]).Union(argU[i])
			}
		}
		r := PathSet{}.Add(Path{Doc: &DocID{URI: uri, Vertex: vid}})
		return r, u, nil
	case "root":
		var r, u PathSet
		for i := range fc.Args {
			u = u.Union(argU[i])
			for _, p := range argR[i] {
				r = r.Add(p.Append(PStep{Fn: FnRoot}))
			}
		}
		return r, u, nil
	case "id", "idref":
		fn := FnID
		if name == "idref" {
			fn = FnIDRef
		}
		var r, u PathSet
		// First parameter contributes only string values (rule ID): used.
		u = u.Union(subtreeOf(argR[0])).Union(argU[0])
		src := 0
		if len(fc.Args) == 2 {
			src = 1
			u = u.Union(argU[1])
		}
		for _, p := range argR[src] {
			r = r.Add(p.Append(PStep{Fn: fn}))
		}
		return r, u, nil
	}
	// Generic builtin: result is atomic; all arguments are consumed.
	var u PathSet
	for i := range fc.Args {
		u = u.Union(subtreeOf(argR[i])).Union(argU[i])
	}
	return nil, u, nil
}

func trimFn(name string) string {
	if len(name) > 3 && name[:3] == "fn:" {
		return name[3:]
	}
	return name
}

// RelativePaths computes the §VI-B relative projections for an XRPCExpr x
// found in an analyzed query with root body `root`:
//
//	Urel(param) = allSuffixes(R(param), U(x))
//	Rrel(param) = allSuffixes(R(param), R(x.Body)) — how the body returns
//	              parts of the parameter
//	Urel(x)     = allSuffixes(R(x), U(root))
//	Rrel(x)     = allSuffixes(R(x), R(root))
type RelativePaths struct {
	ParamUsed     []PathSet // per parameter
	ParamReturned []PathSet
	ResultUsed    PathSet
	ResultReturn  PathSet
}

// Relative extracts the relative projection paths for x from the analysis
// of the query whose body is root.
func (a *Analysis) Relative(x *xq.XRPCExpr, root xq.Expr) RelativePaths {
	var rp RelativePaths
	bodyU := a.Used[x.Body]
	bodyR := a.Returned[x.Body]
	for _, p := range x.Params {
		pr := a.ParamReturned[p]
		rp.ParamUsed = append(rp.ParamUsed, AllSuffixes(pr, bodyU))
		rp.ParamReturned = append(rp.ParamReturned, AllSuffixes(pr, bodyR))
	}
	xr := a.Returned[x]
	rp.ResultUsed = AllSuffixes(xr, a.Used[root])
	rp.ResultReturn = AllSuffixes(xr, a.Returned[root])
	return rp
}
