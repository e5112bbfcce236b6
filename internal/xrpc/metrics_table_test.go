package xrpc

import (
	"fmt"
	"sync"
	"testing"
)

// lane is shorthand for building test waves.
func lane(peer string, sent, recv, exec int64) Lane {
	return Lane{Peer: peer, BytesSent: sent, BytesReceived: recv, RemoteExecNS: exec}
}

// TestMetricsWaveAccounting is the table-driven check of the dispatch-wave
// bookkeeping: how AddWave/Add/Reset sequences shape Waves and WaveCount,
// and the widest wave (the Parallelism a peer.Report derives).
func TestMetricsWaveAccounting(t *testing.T) {
	type op struct {
		kind  string // "wave", "add", "reset"
		lanes []Lane // for wave; for add, one single-lane wave per lane
	}
	cases := []struct {
		name        string
		ops         []op
		wantWaves   [][]Lane
		wantCount   int64
		wantWidest  int
		wantReqs    int64
		wantBytes   int64 // sent+received
		wantMaxExec int64
	}{
		{
			name:       "empty",
			wantWaves:  nil,
			wantWidest: 0,
		},
		{
			// AddWave records dispatch structure only; the byte counters
			// accumulate separately through Add (as Client.callBulk does).
			name:      "single sequential exchange is a one-lane wave",
			ops:       []op{{kind: "wave", lanes: []Lane{lane("a", 10, 20, 5)}}},
			wantWaves: [][]Lane{{lane("a", 10, 20, 5)}},
			wantCount: 1, wantWidest: 1, wantMaxExec: 5,
		},
		{
			name: "scatter wave keeps lanes together",
			ops: []op{{kind: "wave", lanes: []Lane{
				lane("a", 1, 2, 3), lane("b", 4, 5, 6), lane("c", 7, 8, 9)}}},
			wantWaves: [][]Lane{{lane("a", 1, 2, 3), lane("b", 4, 5, 6), lane("c", 7, 8, 9)}},
			wantCount: 1, wantWidest: 3, wantMaxExec: 9,
		},
		{
			name: "sequential waves stay separate",
			ops: []op{
				{kind: "wave", lanes: []Lane{lane("a", 1, 1, 1)}},
				{kind: "wave", lanes: []Lane{lane("b", 2, 2, 2)}},
			},
			wantWaves: [][]Lane{{lane("a", 1, 1, 1)}, {lane("b", 2, 2, 2)}},
			wantCount: 2, wantWidest: 1, wantMaxExec: 2,
		},
		{
			name:      "empty wave is dropped",
			ops:       []op{{kind: "wave"}},
			wantWaves: nil,
		},
		{
			// An aggregate must not retain every query's lanes: Add folds
			// the counters and the wave count, never the waves.
			name: "add merges counters and wave counts, not waves",
			ops: []op{
				{kind: "wave", lanes: []Lane{lane("a", 1, 1, 1)}},
				{kind: "add", lanes: []Lane{lane("b", 10, 10, 7), lane("c", 20, 20, 2)}},
			},
			wantWaves:  [][]Lane{{lane("a", 1, 1, 1)}},
			wantCount:  3,
			wantWidest: 1, wantReqs: 2, wantBytes: 60, wantMaxExec: 1,
		},
		{
			// The PR 2 regression: Reset must zero the counters in place (not
			// replace the struct and clobber the mutex) and later Adds must
			// land on the cleared state.
			name: "reset then add starts from zero",
			ops: []op{
				{kind: "wave", lanes: []Lane{lane("a", 100, 100, 50), lane("b", 100, 100, 60)}},
				{kind: "reset"},
				{kind: "add", lanes: []Lane{lane("c", 3, 4, 5)}},
				{kind: "wave", lanes: []Lane{lane("d", 6, 7, 8), lane("e", 9, 10, 11)}},
			},
			wantWaves: [][]Lane{{lane("d", 6, 7, 8), lane("e", 9, 10, 11)}},
			wantCount: 2, wantWidest: 2, wantReqs: 1, wantBytes: 7, wantMaxExec: 11,
		},
		{
			name: "double reset is idempotent",
			ops: []op{
				{kind: "wave", lanes: []Lane{lane("a", 1, 1, 1)}},
				{kind: "reset"},
				{kind: "reset"},
			},
			wantWaves: nil, wantWidest: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := &Metrics{}
			for _, o := range tc.ops {
				switch o.kind {
				case "wave":
					m.AddWave(o.lanes)
				case "reset":
					m.Reset()
				case "add":
					for _, l := range o.lanes {
						other := &Metrics{
							Requests:      1,
							BytesSent:     l.BytesSent,
							BytesReceived: l.BytesReceived,
							RemoteExecNS:  l.RemoteExecNS,
						}
						other.AddWave([]Lane{l})
						m.Add(other)
					}
				}
			}
			snap := m.Snapshot()
			if got, want := fmt.Sprint(snap.Waves), fmt.Sprint(tc.wantWaves); got != want {
				t.Fatalf("waves = %s, want %s", got, want)
			}
			if snap.WaveCount != tc.wantCount {
				t.Fatalf("wave count = %d, want %d", snap.WaveCount, tc.wantCount)
			}
			widest := 0
			maxExec := int64(0)
			for _, w := range snap.Waves {
				if len(w) > widest {
					widest = len(w)
				}
				for _, l := range w {
					if l.RemoteExecNS > maxExec {
						maxExec = l.RemoteExecNS
					}
				}
			}
			if widest != tc.wantWidest {
				t.Fatalf("widest wave = %d, want %d", widest, tc.wantWidest)
			}
			if maxExec != tc.wantMaxExec {
				t.Fatalf("max lane exec = %d, want %d", maxExec, tc.wantMaxExec)
			}
			if tc.wantReqs != 0 && snap.Requests != tc.wantReqs {
				t.Fatalf("requests = %d, want %d", snap.Requests, tc.wantReqs)
			}
			if got := snap.BytesSent + snap.BytesReceived; got != tc.wantBytes {
				t.Fatalf("bytes = %d, want %d", got, tc.wantBytes)
			}
		})
	}
}

// TestMetricsSnapshotIsolation locks in that Snapshot deep-copies the wave
// slices (mutating a snapshot must not corrupt the live metrics) and that
// Add keeps no reference to the source's waves, only their count.
func TestMetricsSnapshotIsolation(t *testing.T) {
	m := &Metrics{}
	m.AddWave([]Lane{lane("a", 1, 2, 3)})
	snap := m.Snapshot()
	snap.Waves[0][0].BytesSent = 999
	if got := m.Snapshot().Waves[0][0].BytesSent; got != 1 {
		t.Fatalf("snapshot aliases live wave storage: BytesSent = %d", got)
	}
	src := &Metrics{}
	src.AddWave([]Lane{lane("b", 4, 5, 6)})
	dst := &Metrics{}
	dst.Add(src)
	src.Reset()
	if got := dst.Snapshot(); len(got.Waves) != 0 || got.WaveCount != 1 {
		t.Fatalf("Add retained waves %v / count %d, want none / 1", got.Waves, got.WaveCount)
	}
}

// TestMetricsResetConcurrent exercises the PR 2 mutex-clobber regression
// under the race detector: Reset while Adds and AddWaves are in flight must
// neither panic nor deadlock.
func TestMetricsResetConcurrent(t *testing.T) {
	m := &Metrics{}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 3 {
				case 0:
					m.AddWave([]Lane{lane(fmt.Sprintf("p%d", g), int64(i), int64(i), 1)})
				case 1:
					m.Add(&Metrics{Requests: 1, BytesSent: 1, BytesReceived: 1})
				default:
					m.Reset()
				}
			}
		}(g)
	}
	wg.Wait()
	m.Snapshot() // must not panic on a clobbered mutex
}
