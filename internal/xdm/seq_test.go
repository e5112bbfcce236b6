package xdm

import (
	"errors"
	"testing"
)

// items adapts an eagerly materialized sequence to the pull interface.
func items(s Sequence) Seq {
	return func(yield func(Item) bool) error {
		for _, it := range s {
			if !yield(it) {
				return nil
			}
		}
		return nil
	}
}

func TestSeqRoundTrip(t *testing.T) {
	in := Sequence{NewInteger(1), NewString("two"), NewBoolean(true)}
	out, err := items(in).Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if !DeepEqualSeq(in, out) {
		t.Fatalf("round trip mismatch: %v vs %v", in, out)
	}
	empty, err := EmptySeq().Materialize()
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty seq: %v items, err %v", empty, err)
	}
	one, err := items(Sequence{NewInteger(7)}).Materialize()
	if err != nil || len(one) != 1 || one[0].(Atomic).I != 7 {
		t.Fatalf("singleton seq: %v, err %v", one, err)
	}
}

func TestSeqError(t *testing.T) {
	boom := errors.New("boom")
	out, err := Seq(func(func(Item) bool) error { return boom }).Materialize()
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if out != nil {
		t.Fatalf("want nil items on error, got %v", out)
	}
	// An error mid-production discards the prefix on Materialize.
	partial := Seq(func(yield func(Item) bool) error {
		yield(NewInteger(1))
		return boom
	})
	out, err = partial.Materialize()
	if !errors.Is(err, boom) || out != nil {
		t.Fatalf("mid-production error: items %v err %v", out, err)
	}
}

func TestOrderedDisjointNodes(t *testing.T) {
	doc := mustParse(t, `<r><a><b/></a><c/><d><e/><f/></d></r>`)
	r := doc.DocElem()
	a, c, d := r.Children[0], r.Children[1], r.Children[2]
	b := a.Children[0]
	e := d.Children[0]

	if !OrderedDisjointNodes([]*Node{a, c, d}) {
		t.Fatal("siblings should be ordered+disjoint")
	}
	if !OrderedDisjointNodes([]*Node{b, e}) {
		t.Fatal("cousins should be ordered+disjoint")
	}
	if !OrderedDisjointNodes(nil) || !OrderedDisjointNodes([]*Node{c}) {
		t.Fatal("empty and singleton inputs are trivially ordered+disjoint")
	}
	if OrderedDisjointNodes([]*Node{c, a}) {
		t.Fatal("out of order input accepted")
	}
	if OrderedDisjointNodes([]*Node{a, b}) {
		t.Fatal("nested input accepted (b inside a)")
	}
	if OrderedDisjointNodes([]*Node{a, a}) {
		t.Fatal("duplicate input accepted")
	}
	if OrderedDisjointNodes([]*Node{NewElement("x")}) {
		t.Fatal("detached (unfrozen) node accepted")
	}

	doc2 := mustParse(t, `<s><t/></s>`)
	if !OrderedDisjointNodes([]*Node{r, doc2.DocElem()}) {
		t.Fatal("cross-document ordered input should be accepted")
	}
	if OrderedDisjointNodes([]*Node{doc2.DocElem(), r}) {
		t.Fatal("cross-document out-of-order input accepted")
	}
}

func mustParse(t *testing.T, src string) *Document {
	t.Helper()
	doc, err := ParseString(src, "test.xml")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return doc
}
