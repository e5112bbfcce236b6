package xrpc

import (
	"hash/maphash"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/xdm"
)

// TestModuleCacheBounds floods one server with distinct modules, each sent
// twice so every one is admitted, and checks both bounds after every
// request: the entry count, and the total module bytes when the modules are
// large enough for the byte bound to bind first.
func TestModuleCacheBounds(t *testing.T) {
	for _, tc := range []struct {
		name    string
		padding int // bytes of string literal padding each module
		modules int
	}{
		{"entries", 0, 3 * moduleCacheEntries},
		{"bytes", 16 << 10, 3 * moduleCacheBytes / (16 << 10)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newPeer(nil)
			pad := strings.Repeat("x", tc.padding)
			admitted := 0
			for i := 0; i < tc.modules; i++ {
				req := incrementalRequest(t, `("`+pad+`", `+strconv.Itoa(i)+`)`)
				for send := 0; send < 2; send++ {
					if _, err := srv.Handle(req); err != nil {
						t.Fatal(err)
					}
					n, b := srv.modules.size()
					if n > moduleCacheEntries || b > moduleCacheBytes {
						t.Fatalf("module %d: cache holds %d entries / %d bytes, bounds %d / %d",
							i, n, b, moduleCacheEntries, moduleCacheBytes)
					}
					admitted = max(admitted, n)
				}
			}
			if want := min(moduleCacheEntries, moduleCacheBytes/(tc.padding+100)); admitted < want/2 {
				t.Errorf("at most %d entries admitted, want the cache to fill (~%d)", admitted, want)
			}
		})
	}
}

// TestModuleCacheAdmitsOnSecondSighting: a module is kept only once it has
// been seen twice, also when other modules arrive in between (the hash
// table, not just the most recent module, remembers the first sighting).
func TestModuleCacheAdmitsOnSecondSighting(t *testing.T) {
	srv := newPeer(nil)
	slot := func(body string) uint64 {
		module := `declare function f($p as item()*) as item()* { ` + body + ` };`
		return (maphash.String(moduleSeed, module) | 1) % moduleSeenSlots
	}
	// b must not share a's admission slot, or it would overwrite a's
	// sighting (by design: the table is small and lossy).
	other := 2
	for slot(strconv.Itoa(other)) == slot("1") {
		other++
	}
	a := incrementalRequest(t, `1`)
	b := incrementalRequest(t, strconv.Itoa(other))
	for i, req := range [][]byte{a, b, a} {
		if _, err := srv.Handle(req); err != nil {
			t.Fatal(err)
		}
		if n, _ := srv.modules.size(); n != i/2 {
			t.Fatalf("after request %d: %d admitted entries, want %d", i, n, i/2)
		}
	}
}

// TestModuleCacheRejectsBadModules: a module that does not parse, does not
// normalize, or ships a nested remote call faults every time and is never
// admitted, however often it is sent.
func TestModuleCacheRejectsBadModules(t *testing.T) {
	for name, body := range map[string]string{
		"parse":     `for $i in`,
		"normalize": `1 }; declare function f($q as item()*) as item()* { 2`, // f declared twice
		"nested":    `execute at {"b"} { h() }`,
	} {
		t.Run(name, func(t *testing.T) {
			srv := newPeer(nil)
			req := incrementalRequest(t, body)
			for i := 0; i < 3; i++ {
				if _, err := srv.Handle(req); err == nil {
					t.Fatal("bad module evaluated")
				}
			}
			if n, _ := srv.modules.size(); n != 0 {
				t.Errorf("%d admitted entries, want 0", n)
			}
		})
	}
}

// execNS strips the wall-clock attributes a response carries, which are the
// only bytes allowed to differ between two evaluations of one request.
var execNS = regexp.MustCompile(`(exec|serde)-ns="\d+"`)

func stripTimes(b []byte) string { return execNS.ReplaceAllString(string(b), `$1-ns=""`) }

// TestModuleCacheHitMatchesMiss: the responses to a request served on a
// first sighting (miss, transient module), on admission, and from the cache
// are byte-identical up to the timing attributes — under every semantics,
// gather and streamed.
func TestModuleCacheHitMatchesMiss(t *testing.T) {
	docs := mapResolver{"d.xml": `<r><a k="1">x</a><a k="2">y<b/></a></r>`}
	for _, sem := range []Semantics{ByValue, ByFragment, ByProjection} {
		req := &Request{
			Method: "f", Arity: 1, Semantics: sem,
			Module: `declare function f($p as item()*) as item()* { (doc("d.xml")//a, $p) };`,
			Static: eval.DefaultStatic(),
			Calls:  [][]xdm.Sequence{{xdm.Singleton(xdm.NewInteger(7))}},
		}
		data, err := MarshalRequest(req, nil, nil, projection.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv := newPeer(docs)
		var gathered, streamed []string
		for i := 0; i < 3; i++ {
			out, err := srv.Handle(data)
			if err != nil {
				t.Fatal(err)
			}
			gathered = append(gathered, stripTimes(out))
			var frames []byte
			if err := srv.HandleStream(data, func(f []byte) error {
				frames = append(frames, f...)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			streamed = append(streamed, stripTimes(frames))
		}
		if n, _ := srv.modules.size(); n != 1 {
			t.Fatalf("%s: %d admitted entries, want 1", sem, n)
		}
		for i := 1; i < 3; i++ {
			if gathered[i] != gathered[0] {
				t.Errorf("%s: gather response %d differs from the first:\n%s\n%s", sem, i, gathered[i], gathered[0])
			}
			if streamed[i] != streamed[0] {
				t.Errorf("%s: streamed response %d differs from the first", sem, i)
			}
		}
	}
}

// TestModuleCacheConcurrent runs Handle and HandleStream concurrently on one
// module — from a cold cache, so first sightings, admission, the first
// compilation and hits all race — and checks every answer (run it under
// -race).
func TestModuleCacheConcurrent(t *testing.T) {
	srv := newPeer(mapResolver{"d.xml": `<r><a>1</a><a>2</a><a>3</a></r>`})
	req := incrementalRequest(t, `for $a in doc("d.xml")//a return $a * 2`)
	want, err := srv.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	srv = newPeer(mapResolver{"d.xml": `<r><a>1</a><a>2</a><a>3</a></r>`})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if g%2 == 0 {
					out, err := srv.Handle(req)
					if err != nil || stripTimes(out) != stripTimes(want) {
						errs <- "Handle: " + stripTimes(out) + " " + errString(err)
						return
					}
					continue
				}
				var items int
				err := srv.HandleStream(req, func(f []byte) error {
					ch, err := ParseResponseChunk(f)
					if err == nil {
						items += len(ch.Items)
					}
					return err
				})
				if err != nil || items != 3 {
					errs <- "HandleStream: " + strconv.Itoa(items) + " items " + errString(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n, _ := srv.modules.size(); n != 1 {
		t.Errorf("%d admitted entries, want 1", n)
	}
	if n := srv.Engine.StatsSnapshot().Compilations; n > 8 {
		t.Errorf("%d compilations for one module, want at most one per first sighting", n)
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// size reports the admitted entries and their total text bytes.
func (c *moduleCache) size() (entries, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.bytes
}
