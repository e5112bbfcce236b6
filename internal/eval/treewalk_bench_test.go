package eval_test

import (
	"fmt"
	"testing"

	"distxq/internal/eval"
	"distxq/internal/xdm"
	"distxq/internal/xmark"
	"distxq/internal/xq"
)

// BenchmarkEngineLocalTreeWalk is the tree-walk baseline of the root
// BenchmarkEngineLocal: the same document and query, parsed and normalized
// once, with each iteration walking the AST instead of running the compiled
// closure chains. The pair reproduces DESIGN.md's tree-walk vs compiled
// table:
//
//	go test -run=NONE -bench 'BenchmarkEngineLocal' . ./internal/eval
func BenchmarkEngineLocalTreeWalk(b *testing.B) {
	cfg := xmark.DefaultConfig()
	cfg.Persons, cfg.Items, cfg.Auctions = 100, 50, 0
	doc := xmark.PeopleDocument(cfg, "xmk.xml")
	eng := eval.NewEngine(eval.ResolverFunc(func(uri string) (*xdm.Document, error) {
		if uri == "local-people" {
			return doc, nil
		}
		return nil, fmt.Errorf("no such document %q", uri)
	}))
	q, err := xq.ParseQuery(`count(doc("local-people")//person[descendant::age > 30])`)
	if err != nil {
		b.Fatal(err)
	}
	// Warm once: normalization happens here, as in the compiled arm.
	if _, err := eval.TreeWalk(eng, q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.TreeWalk(eng, q); err != nil {
			b.Fatal(err)
		}
	}
}
