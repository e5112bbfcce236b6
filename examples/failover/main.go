// Failover: a four-peer sharded XMark federation with every shard
// replicated x2, queried while peers die. Scenario one kills a peer
// outright (a dead host); scenario two kills it mid-query, after it has
// already streamed part of its answer. Both times the scatter query
// completes with results byte-identical to the healthy run: the failed lane
// re-issues to the shard's replica, and the replay filter suppresses the
// increments the dead peer had already delivered.
package main

import (
	"errors"
	"fmt"
	"log"

	"distxq"
	"distxq/internal/xrpc"
)

// dieMidStream wraps a peer's XRPC endpoint: it answers normally until its
// fuse burns, then every stream dies after `frames` chunk frames — the
// injected "power loss mid-query".
type dieMidStream struct {
	*xrpc.Server
	frames int
}

func (d *dieMidStream) HandleStream(request []byte, emit func([]byte) error) error {
	n := 0
	return d.Server.HandleStream(request, func(frame []byte) error {
		if n >= d.frames {
			return errors.New("injected: peer lost power mid-stream")
		}
		n++
		return emit(frame)
	})
}

func main() {
	const shards = 4
	cfg := distxq.XMarkDefaultConfig()

	net := distxq.NewNetwork()
	var primaries []string
	var replicas [][]string
	for i := 0; i < shards; i++ {
		name := fmt.Sprintf("peer%d", i+1)
		rname := fmt.Sprintf("rep%d", i+1)
		// Primary and replica hold byte-identical copies of shard i under
		// the same peer-local path.
		p := net.AddPeer(name)
		p.AddDoc("xmk.xml", distxq.XMarkPeopleShard(cfg, i, shards, "xrpc://"+name+"/xmk.xml"))
		p.Server.ChunkItems = 4 // small chunks so streams span many frames
		r := net.AddPeer(rname)
		r.AddDoc("xmk.xml", distxq.XMarkPeopleShard(cfg, i, shards, "xrpc://"+rname+"/xmk.xml"))
		r.Server.ChunkItems = 4
		primaries = append(primaries, name)
		replicas = append(replicas, []string{rname})
	}
	local := net.AddPeer("local")

	shardMap := distxq.XMarkPeopleShardMap(primaries)
	shardMap.Replicas = replicas
	// Installed on the federation, the map's replica sets guide every
	// session's failover, hand-written scatter loops included.
	if _, err := net.UpdateShards(shardMap); err != nil {
		log.Fatal(err)
	}
	query := distxq.ScatterQuery(primaries)

	run := func(label string) (string, *distxq.Report) {
		sess := net.NewSession(local, distxq.ByFragment).UseRetry(&distxq.RetryPolicy{})
		sess.Streamed = true
		res, rep, err := sess.Query(query)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		return distxq.Serialize(res), rep
	}

	healthy, _ := run("healthy")
	fmt.Printf("healthy run: %d bytes of results from %d shards\n\n", len(healthy), shards)

	// Scenario 1: peer3 is down before the query starts — a dead host whose
	// connections fail immediately.
	net.KillPeer("peer3")
	got, rep := run("peer3 dead")
	fmt.Printf("peer3 killed:     identical=%v retries=%d winner=%s\n",
		got == healthy, rep.Retries, rep.WinnerReplica["peer3"])
	net.RevivePeer("peer3")

	// Scenario 2: peer2 dies mid-query, after streaming two chunk frames of
	// its answer. The replica's replayed prefix is suppressed, so nothing
	// duplicates and order is preserved.
	p2, _ := net.Peer("peer2")
	net.Transport.Register("peer2", &dieMidStream{Server: p2.Server, frames: 2})
	got, rep = run("peer2 mid-stream death")
	fmt.Printf("peer2 mid-query:  identical=%v retries=%d winner=%s\n",
		got == healthy, rep.Retries, rep.WinnerReplica["peer2"])
	net.Transport.Register("peer2", p2.Server) // heal

	if got != healthy {
		log.Fatal("failover runs diverged from the healthy result")
	}
	fmt.Println("\nall failover runs returned byte-identical results")
}
