package xrpc

import (
	"testing"

	"distxq/internal/xq"
)

// FuzzServerHandle feeds arbitrary bytes to Server.Handle, seeded with the
// golden request corpus. A peer must answer hostile input with an error,
// never a panic, and a request it rejects — one that does not shred, or
// whose module does not parse, normalize or render — must never reach its
// module cache, however often it is sent.
func FuzzServerHandle(f *testing.F) {
	for _, m := range wireCorpus(f) {
		if m.request {
			f.Add(m.data)
		}
	}
	f.Add([]byte("<env:Envelope/>"))
	f.Add([]byte(""))
	docs := mapResolver{"xrpc://a/people.xml": `<site><people><person id="p1"><name>A</name></person></people></site>`}
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := newPeer(docs)
		for i := 0; i < 2; i++ {
			_, _ = srv.Handle(data)
		}
		if rejected(data) {
			if n, _ := srv.modules.size(); n != 0 {
				t.Fatalf("rejected request admitted %d modules", n)
			}
		}
	})
}

// rejected reports whether Server.Handle refuses data before evaluating it.
func rejected(data []byte) bool {
	req, err := ParseRequest(data)
	if err != nil {
		return true
	}
	q, err := xq.ParseQuery(req.Module + "\n0")
	if err == nil {
		err = xq.Normalize(q)
	}
	if err == nil {
		err = xq.RenderModules(q)
	}
	return err != nil
}
