package peer

import (
	"testing"

	"distxq/internal/core"
	"distxq/internal/xdm"
)

// TestModuleCacheSeesReplacedDocument: the peer module cache keeps parsed
// modules, not the documents they read. A module cached on a peer while its
// document is replaced (AddDoc) must answer from the new document.
func TestModuleCacheSeesReplacedDocument(t *testing.T) {
	n := NewNetwork()
	a := n.AddPeer("a")
	local := n.AddPeer("local")
	put := func(xml string) {
		d, err := xdm.ParseString(xml, "xrpc://a/d.xml")
		if err != nil {
			t.Fatal(err)
		}
		a.AddDoc("d.xml", d)
	}
	const src = `declare function f() as item()* { sum(doc("xrpc://a/d.xml")//v) };
execute at {"a"} { f() }`
	query := func() string {
		t.Helper()
		res, _, err := n.NewSession(local, core.ByValue).Query(src)
		if err != nil {
			t.Fatal(err)
		}
		return serialize(res)
	}
	put(`<r><v>1</v><v>2</v></r>`)
	for i := 0; i < 3; i++ { // miss, admission, hit
		if got := query(); got != "3" {
			t.Fatalf("query %d = %s, want 3", i, got)
		}
	}
	if c := a.Engine.StatsSnapshot().Compilations; c != 1 {
		t.Errorf("%d compilations of the shipped module, want 1 (cached)", c)
	}
	put(`<r><v>10</v><v>20</v><v>30</v></r>`)
	if got := query(); got != "60" {
		t.Errorf("after AddDoc the cached module answers %s, want 60", got)
	}
}
