package xrpc

// This file implements the lane runner every dispatch goes through, and its
// fault tolerance: a RetryPolicy that re-issues a failed Bulk RPC to the
// lane's next replica (retry) and races a speculative duplicate against a
// slow one (hedging). The first attempt to finish wins, the losers are
// cancelled, and the lane's provenance (winning replica, retries, hedges,
// wasted wall time) travels on the Lane record so sessions can report
// tail-tolerance costs. Correctness rests on the repo-wide invariant that
// peers evaluate deterministically: two replicas holding byte-identical
// shard documents produce byte-identical results for the same shipped
// function, so racing attempts can share one delivered prefix and the
// gathered query result is unchanged whichever attempt wins.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"distxq/internal/eval"
	"distxq/internal/trace"
	"distxq/internal/xq"
)

// RetryPolicy configures per-lane fault tolerance of dispatch. The zero
// value (or a nil policy) with no replicas disables retrying entirely —
// exactly the pre-policy behavior.
type RetryPolicy struct {
	// MaxAttempts caps the total attempts of one lane, the first try
	// included; attempts rotate through the lane's target list (primary,
	// then replicas in order, wrapping around). Zero means one attempt per
	// available target — with two replicas, up to three attempts.
	MaxAttempts int
	// Backoff is the wait before re-issuing after a failed attempt. Hedged
	// attempts skip it: a hedge races the slow attempt, it does not replace
	// a failed one.
	Backoff time.Duration
	// HedgeAfter, when positive, launches a speculative duplicate of the
	// exchange on the next target of the rotation if the newest attempt has
	// not delivered its first response frame within this duration (a
	// gather-whole response is one frame). The attempts race; the first to
	// finish wins and the losers are cancelled (torn down over
	// cancellation-aware transports). A Client with a HealthTracker
	// overrides this per peer with the observed P90 once enough fresh
	// samples exist.
	HedgeAfter time.Duration
	// SpreadReplicas starts lanes on a rotation of the lane's replica set
	// instead of always on the primary, so concurrent sessions spread load
	// across replicas rather than dog-piling each shard's primary. The
	// rotation is health-ranked when the Client has a HealthTracker and
	// round-robin otherwise; each lane's failover order stays a fixed,
	// deterministic permutation of its target list, and replicas hold
	// byte-identical shards, so results are unchanged. Off by default: the
	// primary-first baseline keeps single-session runs reproducible.
	SpreadReplicas bool
	// RouteLive consults the Client's HealthTracker at dispatch time and
	// sends every lane to the live, fastest copy up front: targets order by
	// observed EWMA with fault-streaked peers demoted to the back (see
	// HealthTracker.RankLive), so a dead or degraded primary stops receiving
	// first attempts as soon as the tracker has seen it fail, instead of
	// every lane burning an attempt (and a hedge window) against it. This is
	// re-route rather than fail-over; replicas hold byte-identical shards, so
	// results are unchanged. Takes precedence over SpreadReplicas; without a
	// tracker it falls back to the primary-first rotation.
	RouteLive bool
}

// spread reports whether initial lane targets rotate across replicas.
func (p *RetryPolicy) spread() bool { return p != nil && p.SpreadReplicas }

// routeLive reports whether lanes route to the fastest live copy up front.
func (p *RetryPolicy) routeLive() bool { return p != nil && p.RouteLive }

// maxAttempts resolves the attempt budget of a lane with the given number
// of replicas. A nil policy still fails over across replicas once each —
// installing a replica set alone buys fault tolerance, without hedging.
func (p *RetryPolicy) maxAttempts(replicas int) int {
	if p != nil && p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return 1 + replicas
}

// hedgeAfter returns the hedge deadline, zero when hedging is off.
func (p *RetryPolicy) hedgeAfter() time.Duration {
	if p == nil {
		return 0
	}
	return p.HedgeAfter
}

// backoff returns the retry backoff, zero when none is configured.
func (p *RetryPolicy) backoff() time.Duration {
	if p == nil {
		return 0
	}
	return p.Backoff
}

// laneTargets returns the lane's canonical target list: the primary first,
// then the replicas in failover order. Lane.Replica indexes into this list
// regardless of how dispatch rotated it, so "Replica > 0" always means "not
// the primary".
func laneTargets(batch eval.ScatterBatch) []string {
	return append([]string{batch.Target}, batch.Replicas...)
}

// dispatchTargets returns the rotation a lane's attempts walk. Primary-first
// by default; under SpreadReplicas consecutive lanes start at different
// targets — health-ranked when a tracker is installed, round-robin otherwise
// — while each individual lane's order stays deterministic.
func (c *Client) dispatchTargets(batch eval.ScatterBatch) []string {
	targets := laneTargets(batch)
	if len(targets) <= 1 {
		return targets
	}
	if c.Retry.routeLive() && c.Health != nil {
		return c.Health.RankLive(targets)
	}
	if !c.Retry.spread() {
		return targets
	}
	seq := c.laneSeq.Add(1) - 1
	if c.Health != nil {
		return c.Health.Rank(targets, seq)
	}
	off := int(seq % uint64(len(targets)))
	rot := make([]string, 0, len(targets))
	rot = append(rot, targets[off:]...)
	return append(rot, targets[:off]...)
}

// replicaIndex maps a winning peer back to its index in the lane's
// canonical (primary-first) target list. A peer beyond the list — a target
// epoch-aware re-dispatch pulled in from a newer shard layout — maps just
// past it, so "Replica > 0" still always means "not the plan-time primary".
func replicaIndex(batch eval.ScatterBatch, peer string) int {
	targets := laneTargets(batch)
	for i, t := range targets {
		if t == peer {
			return i
		}
	}
	return len(targets)
}

// reroutedTargets consults the client's Reroute hook after a genuine fault:
// when the live topology has moved past the lane's plan epoch, the fresh
// rotation's unseen peers (typically the shard's new primary) are appended
// to the lane's rotation so the remaining — and extended — attempts reach
// the shard's current home instead of exhausting retries against a corpse.
// last carries the fresh rotation of the lane's previous consult: when the
// rotation changed again but names only already-known peers (a primary and
// replica swapped roles, or a downed copy came back), the whole fresh
// rotation is appended verbatim, buying the lane one re-wrap through peers
// whose earlier attempts predate the change. An unchanged rotation adds
// nothing, so extensions are bounded by actual topology transitions. It
// returns the extended rotation and how many attempts were added.
func (c *Client) reroutedTargets(batch eval.ScatterBatch, targets []string, last *[]string) ([]string, int) {
	if c.Reroute == nil {
		return targets, 0
	}
	fresh := c.Reroute(batch.Target)
	if len(fresh) == 0 || slices.Equal(fresh, *last) {
		return targets, 0
	}
	*last = slices.Clone(fresh)
	added := 0
	for _, t := range fresh {
		if !slices.Contains(targets, t) {
			targets = append(targets, t)
			added++
		}
	}
	if added == 0 {
		targets = append(targets, fresh...)
		added = len(fresh)
	}
	return targets, added
}

// firstFault tracks the error the lane reports when every attempt failed:
// the fault of the earliest attempt that failed genuinely. Cancellation
// echoes (the dispatcher tearing down the loser of a race, or the whole
// wave aborting) are remembered only as a last resort — a lane must never
// report "context canceled" when a real fault started the failover.
type firstFault struct {
	attempt int
	err     error
	echo    error
}

func (f *firstFault) record(attempt int, err error) {
	if err == nil {
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if f.echo == nil {
			f.echo = err
		}
		return
	}
	if f.err == nil || attempt < f.attempt {
		f.attempt, f.err = attempt, err
	}
}

func (f *firstFault) error() error {
	if f.err != nil {
		return f.err
	}
	if f.echo != nil {
		return f.echo
	}
	return fmt.Errorf("xrpc: lane dispatch exhausted its attempts")
}

// attemptOutcome is one attempt's report back to the lane runner.
type attemptOutcome struct {
	attempt int
	peer    string
	lane    Lane
	err     error
	wallNS  int64
	sp      trace.SpanRef
}

// attemptKind names an attempt for its span: the first try is the primary,
// later ones are retries (after a fault) or hedges (racing a straggler).
func attemptKind(first, hedge bool) string {
	switch {
	case first:
		return "primary"
	case hedge:
		return "hedge"
	default:
		return "retry"
	}
}

// runLane performs one lane's Bulk RPC under the client's RetryPolicy,
// delivering its results through send. Without a policy and without
// replicas it is exactly one exchange. Otherwise attempts rotate through
// the lane's targets and race concurrently: a failed attempt is re-issued
// (after Backoff) to the next one, and when HedgeAfter is set a speculative
// duplicate races the newest attempt if that attempt has not delivered its
// first response frame in time — for a gather-whole exchange the first
// frame is the whole response.
//
// Every attempt delivers through one shared replayFilter, serialised by one
// mutex held across the send — so an increment one attempt forwards is on
// the channel before another attempt can forward what follows it; the send
// gives up once the consumer cancels, so the lock is never held forever.
// The filter forwards only increments beyond the delivered high-water mark,
// and attempts are byte-identical (replicas hold identical shards,
// evaluation is deterministic), so racing streams merge into exactly one
// loop-ordered, duplicate-free sequence whichever attempt is ahead at any
// moment — even when peers chunk differently. The first attempt to finish
// its exchange wins: at that point everything it carried has been
// delivered. Every other attempt is cancelled and its wall time accounted
// as the lane's WastedNS; gather-whole exchanges already in flight over
// transports without cancellation support run to completion after the lane
// returns, their deliveries all suppressed.
func (c *Client) runLane(ctx context.Context, x *xq.XRPCExpr, batch eval.ScatterBatch, send deliverFunc, lsp trace.SpanRef) (Lane, error) {
	start := time.Now()
	max := c.Retry.maxAttempts(len(batch.Replicas))
	// A client with a Reroute hook takes the full event loop even for
	// single-attempt lanes: a fault may pull the shard's new home into the
	// rotation, turning what would be a dead lane into a re-dispatch.
	if max <= 1 && c.Reroute == nil {
		asp := lsp.Child("attempt", trace.Str("peer", batch.Target), trace.Str("kind", "primary"))
		lane, err := c.exchange(ctx, batch.Target, x, batch.Iterations, send, nil, asp)
		asp.EndErr(err)
		if err != nil {
			return Lane{}, budgetFailure(ctx, err, batch.Target, start)
		}
		asp.Set(trace.Bool("winner", true))
		return lane, nil
	}
	targets := c.dispatchTargets(batch)
	lctx, lcancel := context.WithCancel(ctx)
	defer lcancel()
	// finished releases attempts reporting after the runner has returned.
	finished := make(chan struct{})
	defer close(finished)

	var mu sync.Mutex
	progress := &laneProgress{}
	closed := false
	defer func() {
		mu.Lock()
		closed = true
		mu.Unlock()
	}()

	outcomes := make(chan attemptOutcome)
	frames := make(chan int)
	starts := make([]time.Time, 0, max)
	launched, outstanding := 0, 0
	retries, hedges := 0, 0
	launch := func(hedge bool) {
		a := launched
		starts = append(starts, time.Now())
		launched++
		outstanding++
		if a > 0 {
			if hedge {
				hedges++
			} else {
				retries++
			}
		}
		// Resolve the peer here on the event loop: the rotation may grow
		// under epoch-aware re-dispatch, and the attempt goroutine must not
		// touch the shared slice.
		peer := targets[a%len(targets)]
		// The attempt goroutine owns its span end-to-end: it may outlive the
		// lane (a cancelled loser over a synchronous transport runs to
		// completion), so nobody else may End it — the winner tag lands
		// post-hoc via Set, which is legal on an ended span.
		asp := lsp.Child("attempt",
			trace.Str("peer", peer),
			trace.Int("replica", int64(replicaIndex(batch, peer))),
			trace.Str("kind", attemptKind(a == 0, hedge)))
		// The filter's attempt-local stream position starts fresh (every
		// attempt streams from call 0); only progress is shared.
		filter := replayFilter(progress, send)
		deliver := func(chunk eval.StreamChunk) bool {
			mu.Lock()
			defer mu.Unlock()
			return !closed && filter(chunk)
		}
		go func() {
			signalled := false
			onFrame := func() {
				if signalled {
					return
				}
				signalled = true
				select {
				case frames <- a:
				case <-finished:
				}
			}
			t0 := time.Now()
			lane, err := c.exchange(lctx, peer, x, batch.Iterations, deliver, onFrame, asp)
			asp.EndErr(err)
			select {
			case outcomes <- attemptOutcome{
				attempt: a, peer: peer, lane: lane, err: err,
				wallNS: time.Since(t0).Nanoseconds(), sp: asp,
			}:
			case <-finished:
			}
		}()
	}

	var timer *time.Timer
	var timerC <-chan time.Time
	stopHedge := func() {
		if timer != nil {
			timer.Stop()
			timer, timerC = nil, nil
		}
	}
	armHedge := func() {
		stopHedge()
		// The trigger is resolved per attempt against the newest attempt's
		// peer: a tracked peer hedges at its own observed P90.
		if d := c.hedgeDelay(targets[(launched-1)%len(targets)]); d > 0 && launched < max {
			timer = time.NewTimer(d)
			timerC = timer.C
		}
	}
	defer stopHedge()

	// A failed attempt schedules its re-issue through retryC instead of
	// sleeping the backoff inline: the event loop keeps draining outcomes
	// while waiting, so a concurrently outstanding hedge's success wins
	// immediately and the pending retry is abandoned.
	var retryTimer *time.Timer
	var retryC <-chan time.Time
	scheduleRetry := func() {
		if launched >= max || lctx.Err() != nil || retryC != nil {
			return
		}
		if d := c.Retry.backoff(); d > 0 {
			retryTimer = time.NewTimer(d)
			retryC = retryTimer.C
			return
		}
		launch(false)
		armHedge()
	}
	defer func() {
		if retryTimer != nil {
			retryTimer.Stop()
		}
	}()

	fault := &firstFault{}
	loserWall := map[int]int64{}
	var lastFresh []string
	var winner *attemptOutcome
	launch(false)
	armHedge()
	for winner == nil && (outstanding > 0 || retryC != nil) {
		select {
		case o := <-outcomes:
			outstanding--
			if o.err == nil {
				winner = &o
				continue
			}
			fault.record(o.attempt, o.err)
			loserWall[o.attempt] = o.wallNS
			// A deadline expiry is terminal: no replica can answer within a
			// budget that is already spent, so the lane stops failing over
			// instead of burning attempts on work the originator will discard.
			if !isDeadline(o.err) {
				// Epoch-aware re-dispatch: a genuine fault re-consults the live
				// topology — if the shard has moved since this plan's epoch, the
				// new rotation's unseen peers join the lane's rotation and buy
				// the attempts to reach them.
				var added int
				if targets, added = c.reroutedTargets(batch, targets, &lastFresh); added > 0 {
					max += added
				}
				scheduleRetry()
			}
		case a := <-frames:
			// The newest attempt is alive: disarm its hedge trigger. A stream
			// that faults later still fails over, with replay suppression.
			if a == launched-1 {
				stopHedge()
			}
		case <-retryC:
			retryTimer, retryC = nil, nil
			launch(false)
			armHedge()
		case <-timerC:
			launch(true)
			armHedge()
		}
	}
	if winner == nil {
		return Lane{}, budgetFailure(ctx, fault.error(), batch.Target, start)
	}
	// Tear down the losers (cancellation-aware transports abort mid-flight)
	// and charge the lane for the work they burned: completed losers their
	// measured wall time, still-running ones the time since their launch.
	lcancel()
	var wasted int64
	for a := 0; a < launched; a++ {
		if a == winner.attempt {
			continue
		}
		if w, ok := loserWall[a]; ok {
			wasted += w
		} else {
			wasted += time.Since(starts[a]).Nanoseconds()
		}
	}
	// A losing stream stops at its next frame once cancelled, so a streamed
	// lane waits for its losers: no attempt of it outlives the lane. Losing
	// gather-whole exchanges over a transport without cancellation support
	// would run to completion, so a gather lane leaves them behind.
	for c.Streamed && outstanding > 0 {
		select {
		case <-outcomes:
			outstanding--
		case <-frames:
		}
	}
	winner.sp.Set(trace.Bool("winner", true))
	lane := winner.lane
	lane.Target = batch.Target
	lane.Replica = replicaIndex(batch, winner.peer)
	lane.Retries = retries
	lane.Hedges = hedges
	lane.WastedNS = wasted
	return lane, nil
}
