package xrpc

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/trace"
	"distxq/internal/xdm"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// wireMessage is one marshalled message of the golden wire corpus.
type wireMessage struct {
	name    string
	data    []byte
	request bool // a request message, usable as a server input
}

// wireCorpus marshals a fixed set of requests, responses, faults and chunk
// frames that between them exercise every element and attribute the codecs
// write: all three semantics, every node kind as a value copy and as a
// fragment reference, atomics, projection paths, budgets, trace identity and
// piggybacked spans. Every input is deterministic, so the bytes are too.
func wireCorpus(t testing.TB) []wireMessage {
	t.Helper()
	d, err := xdm.ParseString(
		`<site><people><person id="p1"><name>Ann &amp; Bo</name><!--vip--><age>41</age></person>`+
			`<person id="p2"><name>Cy "C" &lt;3</name><age>7</age></person></people></site>`,
		"xrpc://a/people.xml")
	if err != nil {
		t.Fatal(err)
	}
	site := d.DocElem()
	people := site.Children[0]
	p1, p2 := people.Children[0], people.Children[1]
	name1 := p1.Children[0]
	nodes := xdm.Sequence{p1, p1.Attr("id"), name1.Children[0], p1.Children[1], d.Root, p2}
	atoms := xdm.Sequence{xdm.NewInteger(-42), xdm.NewString(`a<b & "c"`), xdm.NewBoolean(true), xdm.NewDouble(2.5)}
	path := func(s string) projection.PathSet {
		p, err := projection.ParsePath(s)
		if err != nil {
			t.Fatal(err)
		}
		return projection.PathSet{}.Add(p)
	}
	spans := []trace.Span{
		{ID: 7, Parent: 3, Name: "serve", Peer: "a", StartNS: 10, EndNS: 900,
			Attrs: []trace.Attr{trace.Str("method", "fcn0"), trace.Int("calls", 2)}},
		{ID: 8, Parent: 7, Name: "call", StartNS: 20, EndNS: 400, Error: "boom <x>"},
	}
	var out []wireMessage
	add := func(name string, data []byte, err error, request bool) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, wireMessage{name: name, data: data, request: request})
	}
	for _, sem := range []Semantics{ByValue, ByFragment, ByProjection} {
		req := &Request{
			Method: "fcn0", Arity: 2, Semantics: sem,
			Module: `declare function fcn0($a as item()*, $b as xs:integer) as item()* { ($a, $b > 1) };`,
			Static: eval.DefaultStatic(),
			Calls:  [][]xdm.Sequence{{nodes, atoms[:1]}, {atoms, xdm.Sequence{}}},
		}
		var used, returned []projection.PathSet
		if sem == ByProjection {
			req.ResultUsed = path("child::name")
			req.ResultReturned = path("child::age")
			used = []projection.PathSet{path("child::name"), nil}
			returned = []projection.PathSet{path("self::node()"), nil}
		}
		data, err := MarshalRequest(req, used, returned, projection.Options{})
		add("request "+sem.String(), data, err, true)

		resp := &Response{Semantics: sem, ExecNanos: 1234, SerializeNanos: 56,
			Results: []xdm.Sequence{nodes, atoms, {}}}
		var ru, rr projection.PathSet
		if sem == ByProjection {
			ru, rr = path("child::name"), path("self::node()")
		}
		data, err = MarshalResponse(resp, ru, rr, projection.Options{})
		add("response "+sem.String(), data, err, false)

		ch := &ResponseChunk{Seq: 3, Call: 1, FirstItem: 64, Items: nodes, Semantics: sem,
			ExecNanos: 99, SerializeNanos: 11}
		data, err = MarshalResponseChunk(ch, ru, rr, projection.Options{})
		add("chunk "+sem.String(), data, err, false)
	}
	traced := &Request{
		Method: "f&g", Arity: 0, Semantics: ByValue,
		Module:   `declare function f&g() as item()* { "<x/>" };`,
		Static:   eval.StaticContext{BaseURI: `http://b/"q"`, DefaultCollation: "c&d", CurrentDateTime: "2009-03-29T00:00:00"},
		BudgetNS: 5000000000, TraceID: 1<<63 + 5, TraceSpan: 17,
		Calls: [][]xdm.Sequence{{}},
	}
	data, err := MarshalRequest(traced, nil, nil, projection.Options{})
	add("request traced budget", data, err, true)
	data, err = MarshalResponse(&Response{Semantics: ByFragment, ExecNanos: 1, SerializeNanos: 2,
		Results: []xdm.Sequence{{p2}}, Spans: spans}, nil, nil, projection.Options{})
	add("response traced", data, err, false)
	data, err = MarshalResponseChunk(&ResponseChunk{Seq: 4, Last: true, Calls: 2, SerializeNanos: 77}, nil, nil, projection.Options{})
	add("chunk last", data, err, false)
	data, err = MarshalResponseChunk(&ResponseChunk{Seq: 5, Last: true, Calls: 2, SerializeNanos: 78, Spans: spans}, nil, nil, projection.Options{})
	add("chunk last traced", data, err, false)
	add("fault plain", MarshalFault(errors.New(`bad <input> & "more"`)), nil, false)
	add("fault deadline", MarshalFault(TracedError(fmt.Errorf("late: %w", ErrDeadlineExceeded), spans)), nil, false)
	add("fault overloaded", MarshalFault(ErrOverloaded), nil, false)
	add("patched serde-ns", patchSerdeNS(out[1].data, 56, 1234567), nil, false)
	return out
}

// TestWireGolden pins the bytes of every message the codecs write: message
// sizes are the paper's Fig. 7 / Table 1 quantities, so a codec rewrite must
// leave them byte-identical (run with -update to accept a deliberate change).
func TestWireGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, m := range wireCorpus(t) {
		fmt.Fprintf(&buf, "== %s (%d bytes)\n%s\n", m.name, len(m.data), m.data)
	}
	path := filepath.Join("testdata", "wire.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/xrpc -run TestWireGolden -update`): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("wire bytes differ from %s:\n got: %s\nwant: %s", path, buf.Bytes(), want)
	}
}
