// Command xq evaluates a distributed XQuery query against an in-process
// federation, or explains how it would be decomposed.
//
// Usage:
//
//	xq [-strategy by-projection] [-doc peer/name=path]... [-explain] 'query'
//	echo 'query' | xq -doc A/students.xml=./students.xml
//
// Documents register as xrpc://peer/name; the query runs at a local
// originator peer under the chosen strategy and the tool prints the result
// plus the transfer report. Remote xqpeer daemons join the federation via
// -peer name=http://host:port — execute-at calls naming them travel over
// HTTP (streamed when -stream is set and the daemon serves /xrpc/stream).
//
// Scatter dispatch becomes fault-tolerant with -replica (ordered failover
// copies per peer), -retry-attempts and -hedge-after: a failed lane
// re-issues to the next replica and a straggling one is hedged, the report
// naming any lane a replica answered.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"distxq"
	"distxq/internal/xrpc"
)

type docFlags []string

func (d *docFlags) String() string     { return strings.Join(*d, ",") }
func (d *docFlags) Set(v string) error { *d = append(*d, v); return nil }

func main() {
	strategy := flag.String("strategy", "by-projection",
		"data-shipping | by-value | by-fragment | by-projection")
	explain := flag.Bool("explain", false, "print the decomposed query instead of executing")
	var docs docFlags
	flag.Var(&docs, "doc", "peer/name=path of a document (repeatable)")
	var shards docFlags
	flag.Var(&shards, "shard",
		"logicalURI=shardPath@recordPath@peer1,peer2,... — register a sharded logical document (repeatable)")
	var httpPeers docFlags
	flag.Var(&httpPeers, "peer",
		"name=baseURL of a remote xqpeer daemon reached over HTTP (repeatable)")
	streamed := flag.Bool("stream", false,
		"dispatch scatter loops over streaming XRPC (chunked result streams)")
	chunkItems := flag.Int("chunk-items", 0,
		"result items per streamed response chunk on in-process peers (0 = default)")
	var replicaSpecs docFlags
	flag.Var(&replicaSpecs, "replica",
		"peer=replica1,replica2,... — ordered failover replicas of a scatter target (repeatable)")
	retries := flag.Int("retry-attempts", 0,
		"max attempts per scatter lane, rotating primary→replicas (0 = one per available copy)")
	hedgeAfter := flag.Duration("hedge-after", 0,
		"hedge a scatter lane to its next replica if unanswered after this duration (0 = off)")
	flag.Parse()

	var src string
	if flag.NArg() > 0 {
		src = strings.Join(flag.Args(), " ")
	} else {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fail(err)
		}
		src = string(data)
	}

	strat, err := parseStrategy(*strategy)
	if err != nil {
		fail(err)
	}
	if *explain {
		out, err := distxq.ExplainDecomposition(src, strat)
		if err != nil {
			fail(err)
		}
		fmt.Println(out)
		return
	}

	net := distxq.NewNetwork()
	net.SetChunkItems(*chunkItems)
	peers := map[string]*distxq.Peer{}
	for _, spec := range docs {
		target, path, ok := strings.Cut(spec, "=")
		if !ok {
			fail(fmt.Errorf("want peer/name=path, got %q", spec))
		}
		peerName, docName, ok := strings.Cut(target, "/")
		if !ok {
			fail(fmt.Errorf("want peer/name=path, got %q", spec))
		}
		p := peers[peerName]
		if p == nil {
			p = net.AddPeer(peerName)
			peers[peerName] = p
		}
		data, err := os.ReadFile(path)
		if err != nil {
			fail(err)
		}
		if err := p.LoadXML(docName, string(data)); err != nil {
			fail(err)
		}
	}
	for _, spec := range httpPeers {
		name, baseURL, ok := strings.Cut(spec, "=")
		if !ok {
			fail(fmt.Errorf("want name=baseURL, got %q", spec))
		}
		url := strings.TrimSuffix(baseURL, "/") + "/xrpc"
		net.RouteExternal(name, &xrpc.HTTPTransport{
			URLFor: func(string) string { return url },
		})
	}
	local := net.AddPeer("local")
	for _, spec := range shards {
		m, err := parseShardMap(spec)
		if err != nil {
			fail(err)
		}
		if _, err := net.UpdateShards(m); err != nil {
			fail(err)
		}
	}
	sess := net.NewSession(local, strat)
	sess.Streamed = *streamed
	for _, spec := range replicaSpecs {
		primary, rest, ok := strings.Cut(spec, "=")
		if !ok || rest == "" {
			fail(fmt.Errorf("want peer=replica1,replica2,..., got %q", spec))
		}
		if sess.Replicas == nil {
			sess.Replicas = map[string][]string{}
		}
		sess.Replicas[primary] = strings.Split(rest, ",")
	}
	if *retries > 0 || *hedgeAfter > 0 || len(sess.Replicas) > 0 {
		sess.Retry = &xrpc.RetryPolicy{MaxAttempts: *retries, HedgeAfter: *hedgeAfter}
	}
	res, rep, err := sess.Query(src)
	if err != nil {
		fail(err)
	}
	fmt.Println(distxq.Serialize(res))
	fmt.Fprintf(os.Stderr, "-- %s: %d B documents + %d B messages in %d exchanges\n",
		strat, rep.DocBytes, rep.MsgBytes, rep.Requests)
	for _, d := range rep.Shards {
		if d.Scattered {
			fmt.Fprintf(os.Stderr, "-- shard rewrite: %s scattered\n", d.Logical)
		} else {
			fmt.Fprintf(os.Stderr, "-- shard rewrite: %s fell back: %s\n", d.Logical, d.Reason)
		}
	}
	if rep.Retries > 0 || rep.Hedges > 0 {
		fmt.Fprintf(os.Stderr, "-- fault tolerance: %d retries, %d hedges\n", rep.Retries, rep.Hedges)
		for target, winner := range rep.WinnerReplica {
			fmt.Fprintf(os.Stderr, "-- lane %s answered by replica %s\n", target, winner)
		}
	}
}

// parseShardMap reads a -shard spec: logicalURI=shardPath@recordPath@peers.
func parseShardMap(spec string) (distxq.ShardMap, error) {
	logical, rest, ok := strings.Cut(spec, "=")
	if !ok {
		return distxq.ShardMap{}, fmt.Errorf("want logicalURI=shardPath@recordPath@peers, got %q", spec)
	}
	parts := strings.SplitN(rest, "@", 3)
	if len(parts) != 3 {
		return distxq.ShardMap{}, fmt.Errorf("want logicalURI=shardPath@recordPath@peers, got %q", spec)
	}
	return distxq.ShardMap{
		Logical:    logical,
		ShardPath:  parts[0],
		RecordPath: parts[1],
		Peers:      strings.Split(parts[2], ","),
	}, nil
}

func parseStrategy(s string) (distxq.Strategy, error) {
	switch s {
	case "data-shipping":
		return distxq.DataShipping, nil
	case "by-value", "pass-by-value":
		return distxq.ByValue, nil
	case "by-fragment", "pass-by-fragment":
		return distxq.ByFragment, nil
	case "by-projection", "pass-by-projection":
		return distxq.ByProjection, nil
	}
	return 0, fmt.Errorf("unknown strategy %q", s)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "xq: %v\n", err)
	os.Exit(1)
}
