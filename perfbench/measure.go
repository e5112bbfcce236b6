package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distxq/internal/core"
	"distxq/internal/xdm"
)

// A measured window is cut into one-second slices. Latency and CPU per
// query are reported as the median over the slices of each slice's p50
// latency and CPU per query, so a burst of host noise covering less than
// half the window cannot move them.
const sliceLen = time.Second

// window is what one closed-loop measurement observed.
type window struct {
	attempted, failed int64
	firstErr          string
	latMS             []float64 // every completed query, sorted
	sliceP50MS        []float64 // per sub-window
	sliceCPUMS        []float64 // per sub-window, CPU ms per completed query
	wall              time.Duration
	cpu               time.Duration
	mallocs           uint64
	allocBytes        uint64
	numGC             uint32
	gcCPU             float64 // runtime/metrics seconds
	steal             float64
	// Sums of the per-query peer.Report fields over completed queries.
	transferBytes, networkNS, requests, chunks, localNS, retries, parallelism int64
	completed                                                                 int64
	// Plan-cache lookups over every service the window ran on.
	planHits, planMisses int64
}

// loop hooks let the traced run bracket each query.
type loopHooks struct {
	before func(i int64)
	after  func(i int64)
}

// runQueries drives f with clients closed-loop clients until dur elapses or
// maxQueries complete (0: no cap), checking every result.
func runQueries(f *fixture, clients int, dur time.Duration, maxQueries int64, hooks *loopHooks) window {
	var w window
	var mu sync.Mutex
	type done struct {
		at  time.Duration
		lat float64
	}
	var finished []done
	var issued atomic.Int64
	slices := int((dur + sliceLen - 1) / sliceLen)
	if maxQueries > 0 {
		slices = 1 // a run of fixed length is not sliced
	}
	sliceCPU := make([]time.Duration, slices+1)
	sliceDone := make([]int64, slices+1)
	var completed atomic.Int64

	gcSamples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	metrics.Read(gcSamples)
	gc0 := gcSamples[0].Value.Float64()
	host0 := readHostCPU()
	cpu0 := processCPU()
	stats0 := f.svc.Stats()
	start := time.Now()
	deadline := start.Add(dur)
	sliceCPU[0] = cpu0

	// The sampler records CPU and completions at each slice boundary.
	stop := make(chan struct{})
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		for k := 1; k < slices; k++ {
			select {
			case <-time.After(time.Until(start.Add(dur * time.Duration(k) / time.Duration(slices)))):
				sliceCPU[k] = processCPU()
				sliceDone[k] = completed.Load()
			case <-stop:
				return
			}
		}
	}()

	// Each client tallies into a window of its own and folds it into w.
	client := func() {
		var own window
		var lats []done
		for time.Now().Before(deadline) {
			if maxQueries > 0 && issued.Add(1) > maxQueries {
				break
			}
			n := f.seq.Add(1) - 1
			src, want := f.query(n)
			if hooks != nil {
				hooks.before(n)
			}
			t0 := time.Now()
			res, rep, err := f.svc.Query(src, core.Budget{})
			lat := time.Since(t0)
			if hooks != nil {
				hooks.after(n)
			}
			if err == nil {
				if got := serializeSeq(res); got != want {
					err = fmt.Errorf("query %d: result differs from the reference (%d bytes vs %d)", n, len(got), len(want))
				}
			}
			own.attempted++
			if err != nil {
				own.failed++
				if own.firstErr == "" {
					own.firstErr = err.Error()
				}
				continue
			}
			completed.Add(1)
			own.completed++
			lats = append(lats, done{at: t0.Add(lat).Sub(start), lat: float64(lat.Nanoseconds()) / 1e6})
			own.transferBytes += rep.TotalBytes()
			own.networkNS += rep.NetworkNS
			own.requests += rep.Requests
			own.chunks += rep.StreamedChunks
			own.localNS += rep.LocalExecNS
			own.retries += rep.Retries + rep.Hedges
			own.parallelism += int64(rep.Parallelism)
		}
		mu.Lock()
		defer mu.Unlock()
		finished = append(finished, lats...)
		w.add(own)
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client()
		}()
	}
	wg.Wait()
	w.wall = time.Since(start)
	cpu1 := processCPU()
	host1 := readHostCPU()
	close(stop)
	samplerDone.Wait()
	metrics.Read(gcSamples)
	runtime.ReadMemStats(&ms1)
	w.cpu = cpu1 - cpu0
	w.mallocs = ms1.Mallocs - ms0.Mallocs
	w.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	w.numGC = ms1.NumGC - ms0.NumGC
	w.gcCPU = gcSamples[0].Value.Float64() - gc0
	w.steal = stealShare(host0, host1)
	stats1 := f.svc.Stats()
	w.planHits = stats1.PlanHits - stats0.PlanHits
	w.planMisses = stats1.PlanMisses - stats0.PlanMisses

	// Slice statistics. The last slice ends when the final client stops.
	sliceCPU[slices] = cpu1
	sliceDone[slices] = w.completed
	sort.Slice(finished, func(i, j int) bool { return finished[i].at < finished[j].at })
	bounds := make([]time.Duration, slices+1)
	for k := range bounds {
		bounds[k] = dur * time.Duration(k) / time.Duration(slices)
	}
	bounds[slices] = w.wall + 1
	j := 0
	for k := 0; k < slices; k++ {
		var lats []float64
		for ; j < len(finished) && finished[j].at < bounds[k+1]; j++ {
			lats = append(lats, finished[j].lat)
		}
		if len(lats) > 0 {
			w.sliceP50MS = append(w.sliceP50MS, median(lats))
		}
		if q := sliceDone[k+1] - sliceDone[k]; q > 0 && sliceCPU[k+1] > 0 && (k == 0 || sliceCPU[k] > 0) {
			w.sliceCPUMS = append(w.sliceCPUMS, float64((sliceCPU[k+1]-sliceCPU[k]).Nanoseconds())/1e6/float64(q))
		}
	}
	w.latMS = make([]float64, len(finished))
	for i, d := range finished {
		w.latMS[i] = d.lat
	}
	sort.Float64s(w.latMS)
	return w
}

// add folds another window of the same run into w.
func (w *window) add(o window) {
	w.attempted += o.attempted
	w.failed += o.failed
	if w.firstErr == "" {
		w.firstErr = o.firstErr
	}
	w.latMS = append(w.latMS, o.latMS...)
	sort.Float64s(w.latMS)
	w.sliceP50MS = append(w.sliceP50MS, o.sliceP50MS...)
	w.sliceCPUMS = append(w.sliceCPUMS, o.sliceCPUMS...)
	w.wall += o.wall
	w.cpu += o.cpu
	w.mallocs += o.mallocs
	w.allocBytes += o.allocBytes
	w.numGC += o.numGC
	w.gcCPU += o.gcCPU
	w.transferBytes += o.transferBytes
	w.networkNS += o.networkNS
	w.requests += o.requests
	w.chunks += o.chunks
	w.localNS += o.localNS
	w.retries += o.retries
	w.parallelism += o.parallelism
	w.completed += o.completed
	w.planHits += o.planHits
	w.planMisses += o.planMisses
}

// perQuery divides a sum by the completed-query count.
func (w *window) perQuery(sum float64) float64 {
	if w.completed == 0 {
		return 0
	}
	return sum / float64(w.completed)
}

// checkerQueries is how many results the checker calibration serializes.
const checkerQueries = 64

// checkerCost is the allocation count and bytes per query of the
// benchmark's own per-query work in runQueries: rendering the query text,
// and serializing the result to compare it with the reference. The window's
// allocation figures leave it out. Not counted: the latency record's slice
// growth, amortized to under 64 bytes per query.
type checkerCost struct{ mallocs, bytes float64 }

// measureChecker runs the first checkerQueries queries of f outside any
// window, keeps their results, and then measures the checker's work alone
// on them.
func measureChecker(f *fixture) (checkerCost, error) {
	results := make([]xdm.Sequence, checkerQueries)
	for i := range results {
		src, _ := f.query(int64(i))
		res, _, err := f.svc.Query(src, core.Budget{})
		if err != nil {
			return checkerCost{}, fmt.Errorf("checker calibration: %w", err)
		}
		results[i] = res
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	wrong := 0
	for i, res := range results {
		if _, want := f.query(int64(i)); serializeSeq(res) != want {
			wrong++
		}
	}
	runtime.ReadMemStats(&ms1)
	if wrong > 0 {
		return checkerCost{}, fmt.Errorf("checker calibration: %d of %d results differ from the reference", wrong, len(results))
	}
	n := float64(len(results))
	return checkerCost{float64(ms1.Mallocs-ms0.Mallocs) / n, float64(ms1.TotalAlloc-ms0.TotalAlloc) / n}, nil
}

// liveHeapMB collects garbage and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
