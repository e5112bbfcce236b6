// Command perfbench is distxq's end-to-end benchmark. It builds one of three
// seeded federations, drives it closed-loop through the public
// service.Service.Query front end for a fixed time, checks every result
// against a reference computed once by an independent local evaluation, and
// prints the metrics as the last line of standard output:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics, measured with no
// instrumentation installed. With --trace 1 it prints the per-layer ledger:
// it wraps each peer's handler and transport, records spans from the
// benchmark's own code, replays captured messages through each module's
// public functions, and writes the Chrome trace and the layer table to
// --out. run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"distxq/internal/core"
)

// A run sets its federation up in two batches, one before the measured
// window and one after it, so that a slow phase of the host at either end
// weighs on half of the samples at most. Each batch builds at least
// minSetups times and until setupTime has passed (at most maxSetups times);
// setup_s is the median over both batches, and the first batch's last build
// serves the measured window.
const (
	minSetups = 3
	maxSetups = 30
	setupTime = 750 * time.Millisecond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed of the generated documents and queries")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger")
	out := flag.String("out", "perfbench/out", "directory for the trace artifacts of --trace 1")
	flag.Parse()
	wl, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))

	wants, err := wl.reference(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: reference: %v\n", wl.name, err)
		return 1
	}
	b := builder{wl: wl, seed: *seed, wants: wants}
	fmt.Printf("workload %s seed %d: %s\n", wl.name, *seed, wl.sizes)
	fmt.Printf("host: nproc %d, GOMAXPROCS %d\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))

	var res result
	if *traced == 0 {
		res, err = endToEnd(b, dur)
	} else {
		res, err = tracedRun(b, dur, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// builder sets a workload's federation up for one seed. The reference
// results are computed once per run, before and outside every timed set-up.
type builder struct {
	wl    workload
	seed  uint64
	wants []string
}

// setUps runs one batch of set-ups, each building the federation up to and
// including the first checked query, and returns their times in seconds. It
// keeps the batch's last federation when keep is set and closes every other.
func (b builder) setUps(keep bool) (*fixture, []float64, error) {
	var times []float64
	var f *fixture
	start := time.Now()
	for r := 0; r < minSetups || (r < maxSetups && time.Since(start) < setupTime); r++ {
		if f != nil {
			f.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if f, err = b.wl.build(b.seed, b.wants); err != nil {
			return nil, nil, err
		}
		src, want := f.query(0)
		res, _, err := f.svc.Query(src, core.Budget{})
		if err != nil {
			f.close()
			return nil, nil, fmt.Errorf("first query: %w", err)
		}
		if got := serializeSeq(res); got != want {
			f.close()
			return nil, nil, fmt.Errorf("first query: result differs from the reference:\n got: %.300s\nwant: %.300s", got, want)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	if !keep {
		f.close()
		f = nil
	}
	return f, times, nil
}

// warmUp runs the workload's warm-up queries unmeasured so the plan cache,
// connection pools, health tracker and the garbage collector's pacing
// settle before timing.
func warmUp(f *fixture, wl workload, clients int) error {
	w := runQueries(f, clients, time.Hour, wl.warmUp, nil)
	if w.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d queries failed: %s", w.failed, w.attempted, w.firstErr)
	}
	return nil
}

// endToEnd sets the federation up, measures the window on the last build
// of the first batch of set-ups, and then runs the second batch with the
// measured federation released, so both batches start from the same heap.
func endToEnd(b builder, dur time.Duration) (result, error) {
	var before []float64
	res, err := func() (result, error) {
		f, times, err := b.setUps(true)
		if err != nil {
			return result{}, err
		}
		defer f.close()
		before = times
		return measureWindow(f, b.wl, dur)
	}()
	if err != nil {
		return res, err
	}
	_, after, err := b.setUps(false)
	if err != nil {
		return res, err
	}
	fmt.Printf("setup: median %s s before the window (%d set-ups), %s s after it (%d)\n",
		fmtFloat(median(before)), len(before), fmtFloat(median(after)), len(after))
	res.Metrics["setup_s"] = metric{median(append(before, after...)), "s"}
	printMetrics(res.Metrics)
	return res, nil
}

// tracedRun sets the federation up once and runs the per-layer ledger on it.
func tracedRun(b builder, dur time.Duration, out string) (result, error) {
	f, _, err := b.setUps(true)
	if err != nil {
		return result{}, err
	}
	defer f.close()
	return layers(f, b.wl, b.seed, dur, out)
}

// measureWindow warms f up, measures the window, and calibrates the
// benchmark's own checker work; it returns every end-to-end metric but
// setup_s.
func measureWindow(f *fixture, wl workload, dur time.Duration) (result, error) {
	var res result
	if err := warmUp(f, wl, wl.clients); err != nil {
		return res, err
	}
	// The live heap is read after a fixed number of queries rather than a
	// fixed time: anything the program retains per query then counts the
	// same however fast the host ran.
	heap := liveHeapMB()
	w := runQueries(f, wl.clients, dur, 0, nil)
	reportHost(w)
	chk, err := measureChecker(f)
	if err != nil {
		return res, err
	}
	fmt.Printf("checker: %.1f allocations and %.2f KiB per query of the benchmark's own result check, left out of the allocation figures\n", chk.mallocs, chk.bytes/1024)
	res.Correct = w.failed == 0 && w.completed > 0
	res.Attempted, res.Failed = w.attempted, w.failed
	res.Metrics = endToEndMetrics(w, heap, chk)
	return res, nil
}

// endToEndMetrics derives the gated metrics of a measured window, all but
// setup_s: what a query costs in allocations, bytes and simulated network
// time, with the benchmark's own result check taken out of the allocation
// figures. No time figure is gated. On the 2-vCPU VM the benchmark was
// defined on, the CPU time of the same fixed work, run on one thread with
// the collector paused, moved by up to 1.7x between runs minutes apart, more
// than any bound allows. So these metrics cannot see a change that makes
// queries slower without making them allocate or move more; reportHost
// prints latency and CPU per query beside them for a reader to compare.
func endToEndMetrics(w window, heapMB float64, chk checkerCost) map[string]metric {
	return map[string]metric{
		"allocs_per_query":      {w.perQuery(float64(w.mallocs)) - chk.mallocs, "count"},
		"alloc_kb_per_query":    {(w.perQuery(float64(w.allocBytes)) - chk.bytes) / 1024, "KiB"},
		"transfer_kb_per_query": {w.perQuery(float64(w.transferBytes)) / 1024, "KiB"},
		"sim_network_ms":        {w.perQuery(float64(w.networkNS)) / 1e6, "ms"},
		"live_heap_mb":          {heapMB, "MiB"},
	}
}

// A window is flagged noisy at this steal share or slice-to-slice swing.
const (
	noisySteal = 0.05
	noisySwing = 1.2
)

// reportHost prints the host-noise record of a window and the time figures
// that stay out of the gated set: the steal share, the slice-to-slice swing,
// median per-slice p50 latency and CPU per query, the tail latency with its
// sample count, and the error rate.
func reportHost(w window) {
	// The workloads repeat the same mix every slice, so a wide swing of the
	// per-slice p50 (Q3/Q1 over the slices) is the host.
	s := append([]float64(nil), w.sliceP50MS...)
	sort.Float64s(s)
	swing := percentile(s, 75) / percentile(s, 25)
	verdict := "quiet"
	if math.IsNaN(w.steal) {
		verdict = "steal unknown: no /proc/stat"
	}
	if w.steal >= noisySteal || swing >= noisySwing {
		verdict = "NOISY: slice times swing by 20% or more, from the host or a program that drifts as it runs; time figures are unreliable"
	}
	fmt.Printf("host: steal %.1f%% of machine CPU, slice p50 swing Q3/Q1 %.2fx during the window (%s)\n", 100*w.steal, swing, verdict)
	fmt.Printf("time (not gated): latency_p50_ms %s, cpu_ms_per_query %s (medians over %d one-second slices)\n",
		fmtFloat(median(w.sliceP50MS)), fmtFloat(median(w.sliceCPUMS)), len(w.sliceP50MS))
	tail := tailPercentile(w.latMS)
	fmt.Printf("time (not gated): latency_%s_ms %s over %d samples (%d beyond); %.0f queries/s wall\n",
		strings.ReplaceAll(tail.Label, ".", "_"), fmtFloat(tail.Value), tail.N, tail.Beyond, float64(w.completed)/w.wall.Seconds())
	fmt.Printf("time (not gated): per-slice p50 ms %s\n", fmtList(w.sliceP50MS))
	fmt.Printf("time (not gated): per-slice CPU ms/query %s\n", fmtList(w.sliceCPUMS))
	errRate := 1.0
	if w.attempted > 0 {
		errRate = float64(w.failed) / float64(w.attempted)
	}
	fmt.Printf("error_rate %s (%d failed or wrong of %d attempted; the JSON's failed count)\n", fmtFloat(errRate), w.failed, w.attempted)
	if w.firstErr != "" {
		fmt.Printf("first failure: %s\n", w.firstErr)
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func printMetrics(m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-34s %s %s\n", k, fmtFloat(m[k].Value), m[k].Unit)
	}
}
