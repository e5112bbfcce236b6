package xq

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNormalizeExecuteAtInlines(t *testing.T) {
	q := MustParseQuery(`
	declare function f($a as xs:integer) as xs:integer { $a + 1 };
	execute at {"p"} { f(41) }`)
	if err := Normalize(q); err != nil {
		t.Fatal(err)
	}
	// Non-variable argument hoisted into a let; body inlined under a fresh
	// parameter name.
	let, ok := q.Body.(*LetExpr)
	if !ok {
		t.Fatalf("want hoisting let, got %T: %s", q.Body, Print(q.Body))
	}
	x, ok := let.Return.(*XRPCExpr)
	if !ok {
		t.Fatalf("want XRPCExpr, got %T", let.Return)
	}
	if len(x.Params) != 1 || x.Params[0].Ref != let.Var {
		t.Errorf("param should reference the hoisted let: %+v", x.Params[0])
	}
	if !strings.Contains(Print(x.Body), "+ 1") {
		t.Errorf("body not inlined: %s", Print(x.Body))
	}
	if x.FuncName != "f" {
		t.Errorf("FuncName = %q", x.FuncName)
	}
}

func TestNormalizeVarArgStaysDirect(t *testing.T) {
	q := MustParseQuery(`
	declare function f($a as item()*) as item()* { $a };
	let $v := 7 return execute at {"p"} { f($v) }`)
	if err := Normalize(q); err != nil {
		t.Fatal(err)
	}
	var x *XRPCExpr
	Walk(q.Body, func(e Expr) bool {
		if xx, ok := e.(*XRPCExpr); ok {
			x = xx
		}
		return true
	})
	if x == nil {
		t.Fatal("no XRPCExpr")
	}
	if len(x.Params) != 1 || x.Params[0].Ref != "v" {
		t.Errorf("variable argument should pass through: %+v", x.Params)
	}
	// Declared type is carried along for the shipped signature.
	if len(x.Types) != 1 || x.Types[0].Item != "item()" {
		t.Errorf("types = %+v", x.Types)
	}
}

func TestNormalizeNestedFunctionInlining(t *testing.T) {
	q := MustParseQuery(`
	declare function inner($x as item()*) as item()* { count($x) };
	declare function outer($y as item()*) as item()* { inner($y) + inner($y) };
	let $v := (1,2,3) return execute at {"p"} { outer($v) }`)
	if err := Normalize(q); err != nil {
		t.Fatal(err)
	}
	var x *XRPCExpr
	Walk(q.Body, func(e Expr) bool {
		if xx, ok := e.(*XRPCExpr); ok {
			x = xx
		}
		return true
	})
	body := Print(x.Body)
	if strings.Contains(body, "inner(") || strings.Contains(body, "outer(") {
		t.Errorf("nested declared calls must be inlined for shipping: %s", body)
	}
	if !strings.Contains(body, "count(") {
		t.Errorf("inlined body lost count(): %s", body)
	}
}

func TestNormalizeRejectsRecursiveRemote(t *testing.T) {
	q := MustParseQuery(`
	declare function rec($n as xs:integer) as xs:integer
	{ if ($n = 0) then 0 else rec($n - 1) };
	execute at {"p"} { rec(3) }`)
	if err := Normalize(q); err == nil {
		t.Fatal("recursive remote function must be rejected (rule 27)")
	}
	// Mutual recursion too.
	q2 := MustParseQuery(`
	declare function a($n as xs:integer) as xs:integer { b($n) };
	declare function b($n as xs:integer) as xs:integer { a($n) };
	execute at {"p"} { a(1) }`)
	if err := Normalize(q2); err == nil {
		t.Fatal("mutually recursive remote function must be rejected")
	}
}

func TestNormalizeUndeclaredExecuteAtFails(t *testing.T) {
	q := MustParseQuery(`execute at {"p"} { ghost(1) }`)
	if err := Normalize(q); err == nil {
		t.Fatal("undeclared remote function must error")
	}
}

func TestNormalizeDuplicateFunction(t *testing.T) {
	q := MustParseQuery(`
	declare function f($a as item()*) as item()* { 1 };
	declare function f($b as item()*) as item()* { 2 };
	f(0)`)
	if err := Normalize(q); err == nil {
		t.Fatal("duplicate function declarations must be rejected")
	}
}

func TestFreeVarsShadowing(t *testing.T) {
	e, err := ParseExpr(`for $x in $outer return ($x, $free, let $y := 1 return $y)`)
	if err != nil {
		t.Fatal(err)
	}
	fv := FreeVars(e)
	if !fv["outer"] || !fv["free"] {
		t.Errorf("free vars = %v", fv)
	}
	if fv["x"] || fv["y"] {
		t.Errorf("bound vars leaked: %v", fv)
	}
}

func TestFreeVarsXRPCParams(t *testing.T) {
	x := &XRPCExpr{
		Target: &Literal{},
		Params: []*XRPCParam{{Name: "p", Ref: "outer"}},
		Body:   &VarRef{Name: "p"},
	}
	fv := FreeVars(x)
	if !fv["outer"] {
		t.Error("param ref is a free use of the outer variable")
	}
	if fv["p"] {
		t.Error("the parameter name is bound inside the body")
	}
}

func TestRenameFreeVarsRespectsShadowing(t *testing.T) {
	e, err := ParseExpr(`($a, for $a in (1) return $a)`)
	if err != nil {
		t.Fatal(err)
	}
	out := RenameFreeVars(e, map[string]string{"a": "z"})
	p := Print(out)
	if !strings.Contains(p, "$z") {
		t.Errorf("free $a not renamed: %s", p)
	}
	if !strings.Contains(p, "for $a in 1 return $a") {
		t.Errorf("bound $a must stay: %s", p)
	}
}

func TestCloneExprIndependence(t *testing.T) {
	src := `for $x in doc("d.xml")//a[b = 2] return <w at="1">{$x, count($x)}</w>`
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	clone := CloneExpr(e)
	if Print(clone) != Print(e) {
		t.Fatalf("clone prints differently:\n%s\n%s", Print(clone), Print(e))
	}
	// Mutating the clone must not affect the original.
	clone.(*ForExpr).Var = "renamed"
	if e.(*ForExpr).Var == "renamed" {
		t.Error("clone shares state with original")
	}
}

func TestClonePreservesAllNodeKinds(t *testing.T) {
	srcs := []string{
		`typeswitch (1) case $n as node() return $n default $d return $d`,
		`some $v in (1,2) satisfies $v = 2`,
		`$a union $b intersect $c except $d`,
		`element {concat("a","b")} {attribute x {"y"}, text {"z"}, document {()}}`,
		`1 + 2 * -3 div 4 mod 5 idiv 6`,
		`. << /child::a`,
		`(1,2)[2]`,
	}
	for _, src := range srcs {
		e, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if Print(CloneExpr(e)) != Print(e) {
			t.Errorf("clone of %s differs", src)
		}
	}
}

// TestPrintParseFixpointProperty: printing any parseable expression and
// reparsing yields the same printout (generated from a small expression
// grammar).
func TestPrintParseFixpointProperty(t *testing.T) {
	atoms := []string{"1", `"s"`, "$v", "()", "doc(\"d.xml\")"}
	ops := []string{"+", "-", "*", "=", "<", "and", "or", "union", ",", "is"}
	build := func(picks []uint8) string {
		if len(picks) == 0 {
			return "1"
		}
		expr := atoms[int(picks[0])%len(atoms)]
		for i := 1; i+1 < len(picks); i += 2 {
			op := ops[int(picks[i])%len(ops)]
			rhs := atoms[int(picks[i+1])%len(atoms)]
			expr = "(" + expr + " " + op + " " + rhs + ")"
		}
		return expr
	}
	f := func(picks []uint8) bool {
		src := build(picks)
		e, err := ParseExpr(src)
		if err != nil {
			return true // grammar-invalid combos (e.g. "1 is 2") still parse; others skip
		}
		p1 := Print(e)
		e2, err := ParseExpr(p1)
		if err != nil {
			t.Logf("reparse failed for %q → %q: %v", src, p1, err)
			return false
		}
		return Print(e2) == p1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRenderModules: rendering prints each shipped module once — a second
// render keeps the text it stored — parses back to the function the message
// names, and refuses unnamed expressions and nested remote calls.
func TestRenderModules(t *testing.T) {
	q := MustParseQuery(`
	declare function f($a as xs:integer) as item()* { $a + 1 };
	(execute at {"p"} { f(41) }, execute at {"q"} { f(1) })`)
	if err := Normalize(q); err != nil {
		t.Fatal(err)
	}
	if err := RenderModules(q); err != nil {
		t.Fatal(err)
	}
	var xs []*XRPCExpr
	Walk(q.Body, func(e Expr) bool {
		if x, ok := e.(*XRPCExpr); ok {
			xs = append(xs, x)
		}
		return true
	})
	if len(xs) != 2 {
		t.Fatalf("%d execute-at expressions, want 2", len(xs))
	}
	first := xs[0].Module
	if err := RenderModules(q); err != nil || xs[0].Module != first {
		t.Errorf("second render changed the module (%v): %q -> %q", err, first, xs[0].Module)
	}
	for _, x := range xs {
		shipped, err := ParseQuery(x.Module + "\n0")
		if err != nil {
			t.Fatalf("rendered module does not parse: %v\n%s", err, x.Module)
		}
		if len(shipped.Funcs) != 1 || shipped.Funcs[0].Name != "f" || len(shipped.Funcs[0].Params) != 1 {
			t.Errorf("rendered module declares the wrong function: %s", x.Module)
		}
	}

	unnamed := &XRPCExpr{Target: &Literal{}, Body: &Literal{}}
	if err := RenderModules(&Query{Body: unnamed}); err == nil || unnamed.Module != "" {
		t.Errorf("unnamed expression rendered (%v): %q", err, unnamed.Module)
	}
	nested := &XRPCExpr{Target: &Literal{}, FuncName: "g",
		Body: &XRPCExpr{Target: &Literal{}, FuncName: "h", Body: &Literal{}}}
	if err := RenderModules(&Query{Body: nested}); err == nil || !strings.Contains(err.Error(), "nested execute-at") {
		t.Errorf("nested remote call rendered: %v", err)
	}
}
