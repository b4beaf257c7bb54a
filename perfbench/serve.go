package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	rtm "runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dgcl"
	"dgcl/internal/runtime"
	"dgcl/internal/serve"
)

// serveSpec is the serving workload: open-loop Zipf reads beside periodic
// model updates, over a cache smaller than the key space.
type serveSpec struct {
	name          string
	ds            dgcl.Dataset
	scale, gpus   int
	inDim, hid    int
	layers        int
	cacheEntries  int
	qps           float64
	zipfS         float64
	updateEvery   time.Duration
	limit         float64 // s, the goodput latency limit from the due time
	maxInFlight   int
	warmupSeconds float64
}

var serveZipf = serveSpec{name: "serve-zipf", ds: dgcl.WebGoogle, scale: 256, gpus: 4,
	inDim: 16, hid: 8, layers: 2, cacheEntries: 1024, qps: 1600, zipfS: 1.2,
	updateEvery: time.Second, limit: 0.050, maxInFlight: 4096, warmupSeconds: 1}

// queryTail is the tail percentile reported for query latencies, taken in
// each update period and reported as the median over the periods. It is
// p90, not p99: a host that stalls the process for a few percent of the time
// delays more than 1% of queries by the length of a stall, so p99 measured
// the host's stalls (it rose by half at 3% stall time) while p90 held.
const queryTail = 0.90

// serveInputs are everything generated from the seed. The server starts on
// weights[0] and the updates alternate weights[1], weights[0], ..., so the
// model version an answer reports names its weights: weights[version%2].
type serveInputs struct {
	g        *dgcl.Graph
	features *dgcl.Matrix
	weights  [2]*dgcl.Model
	rank     []int32 // Zipf rank -> vertex, a seeded permutation
	seed     int64
}

func (sp serveSpec) inputs(seed int64) serveInputs {
	g := sp.ds.Generate(sp.scale, seed)
	in := serveInputs{
		g:        g,
		features: dgcl.RandomFeatures(g.NumVertices(), sp.inDim, seed+1),
		weights: [2]*dgcl.Model{
			dgcl.NewModel(dgcl.GCN, sp.inDim, sp.hid, sp.layers, seed),
			dgcl.NewModel(dgcl.GCN, sp.inDim, sp.hid, sp.layers, seed+7),
		},
		seed: seed,
	}
	perm := rand.New(rand.NewSource(seed + 3)).Perm(g.NumVertices())
	in.rank = make([]int32, len(perm))
	for i, v := range perm {
		in.rank[i] = int32(v)
	}
	return in
}

// queries is one stretch of offered load: query i asks for keys[i] and is
// due at the start plus due[i].
type queries struct {
	keys []int32
	due  []time.Duration
}

// queries draws the queries of `seconds` of load: Zipf-distributed keys
// arriving as a Poisson process at the spec's rate, the arrivals of
// independent users.
func (sp serveSpec) queries(in serveInputs, seconds float64, stream int64) queries {
	r := rand.New(rand.NewSource(in.seed*7919 + stream))
	z := rand.NewZipf(r, sp.zipfS, 1, uint64(len(in.rank)-1))
	n := int(seconds * sp.qps)
	q := queries{keys: make([]int32, n), due: make([]time.Duration, n)}
	var at float64
	for i := range q.keys {
		q.keys[i] = in.rank[z.Uint64()]
		at += r.ExpFloat64() / sp.qps
		q.due[i] = time.Duration(at * float64(time.Second))
	}
	return q
}

// sleepUntil blocks until t. It sleeps in nanosleep rather than time.Sleep,
// whose wake-ups come up to a millisecond late here: that lateness, not the
// server, would otherwise be the median query latency.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// setup takes the system from Init to a constructed server.
func (sp serveSpec) setup(in serveInputs) (*dgcl.System, *serve.Server, error) {
	topo, err := dgcl.TopologyForGPUCount(sp.gpus)
	if err != nil {
		return nil, nil, err
	}
	sys := dgcl.Init(topo, dgcl.Options{Seed: in.seed})
	if err := sys.BuildCommInfo(in.g, sp.inDim); err != nil {
		return nil, nil, fmt.Errorf("build comm info: %w", err)
	}
	if err := sys.SetRunOptions(dgcl.RunOptions{CollectStats: true, DownAfter: runtime.DefaultDownAfter}); err != nil {
		return nil, nil, err
	}
	srv, err := serve.New(sys, in.weights[0], in.features, serve.Config{CacheEntries: sp.cacheEntries})
	if err != nil {
		return nil, nil, err
	}
	return sys, srv, nil
}

// loadState is shared by the query and update goroutines of a run.
type loadState struct {
	srv      *serve.Server
	expected [2]*dgcl.Matrix // direct Trainer.Forward of each weight set
	weights  [2]*dgcl.Model
	// updates counts completed UpdateModel calls; an answer to a query
	// dispatched after the k-th completed must report version >= k.
	updates atomic.Uint64
}

// check classifies an answer against the direct forward of the version it
// reports.
func (ls *loadState) check(vertex int32, res serve.Result, installed uint64) outcome {
	if res.Version < installed {
		return stale
	}
	want := ls.expected[res.Version%2].Row(int(vertex))
	if len(res.Row) != len(want) {
		return wrong
	}
	for i := range want {
		if math.Float32bits(res.Row[i]) != math.Float32bits(want[i]) {
			return wrong
		}
	}
	return answered
}

// loadPhase is the outcome of one stretch of open-loop load.
type loadPhase struct {
	queries   []queryRecord
	callS     []float64 // traced phases only: Query call durations
	updateS   []float64
	lateMax   float64
	seconds   float64
	cpuS      float64
	heapMB    float64
	statsFrom serve.Stats
	statsTo   serve.Stats
	commFrom  runtime.CommSnapshot
	commTo    runtime.CommSnapshot
}

// runLoad sends each query when it is due, whatever earlier queries are
// doing, one goroutine per query, and times each from when it was due.
// UpdateModel runs on its own schedule beside it.
func (sp serveSpec) runLoad(ls *loadState, sys *dgcl.System, load queries, traced bool) loadPhase {
	keys := load.keys
	ph := loadPhase{queries: make([]queryRecord, len(keys))}
	if traced {
		ph.callS = make([]float64, len(keys))
	}
	ph.statsFrom, ph.commFrom = ls.srv.Stats(), sys.Stats().Snapshot()
	heap := startHeapSampler()
	cpu0 := cpuSeconds()
	start := time.Now()
	stop := make(chan struct{})
	var updWG sync.WaitGroup
	updWG.Add(1)
	go func() {
		defer updWG.Done()
		for k := 1; ; k++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Until(start.Add(time.Duration(k) * sp.updateEvery))):
			}
			next := ls.updates.Load() + 1
			t0 := time.Now()
			err := ls.srv.UpdateModel(ls.weights[next%2])
			ph.updateS = append(ph.updateS, time.Since(t0).Seconds())
			if err == nil {
				ls.updates.Store(next)
			}
		}
	}()
	var wg sync.WaitGroup
	var inFlight atomic.Int64
	for i, v := range keys {
		due := start.Add(load.due[i])
		sleepUntil(due)
		if late := time.Since(due).Seconds(); late > ph.lateMax {
			ph.lateMax = late
		}
		if inFlight.Load() >= int64(sp.maxInFlight) {
			ph.queries[i] = queryRecord{out: overflow, due: load.due[i]}
			continue
		}
		inFlight.Add(1)
		wg.Add(1)
		go func(i int, v int32, due time.Time) {
			defer wg.Done()
			defer inFlight.Add(-1)
			installed := ls.updates.Load()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			t0 := time.Now()
			res, err := ls.srv.Query(ctx, int(v))
			t1 := time.Now()
			cancel()
			q := queryRecord{latency: t1.Sub(due).Seconds(), cached: res.Cached, due: load.due[i]}
			switch {
			case errors.Is(err, serve.ErrOverload):
				q.out = shed
			case err != nil:
				q.out = errored
			default:
				q.out = ls.check(v, res, installed)
			}
			ph.queries[i] = q
			if traced {
				ph.callS[i] = t1.Sub(t0).Seconds()
			}
		}(i, v, due)
	}
	wg.Wait()
	close(stop)
	updWG.Wait()
	ph.seconds = time.Since(start).Seconds()
	ph.cpuS = cpuSeconds() - cpu0
	ph.heapMB = heap.peakMB()
	ph.statsTo, ph.commTo = ls.srv.Stats(), sys.Stats().Snapshot()
	return ph
}

func (ph loadPhase) failed() int {
	n := 0
	for _, q := range ph.queries {
		if q.out != answered {
			n++
		}
	}
	return n
}

// runServe runs the serving workload.
func runServe(sp serveSpec, seed int64, seconds float64, traced bool) (*result, error) {
	in := sp.inputs(seed)
	var setupTimes []float64
	var sys *dgcl.System
	var srv *serve.Server
	for moreSetups(setupTimes) {
		if srv != nil {
			srv.Close()
		}
		rtm.GC()
		t0 := time.Now()
		var err error
		sys, srv, err = sp.setup(in)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer srv.Close()
	res := newResult(sp.name)
	res.note("graph: %s at 1/%d scale, %d vertices, %d edges; GCN %d->%d, %d layers, %d GPUs; cache %d entries; %.0f queries/s Zipf(%.1f), model update every %s",
		sp.ds.Name, sp.scale, in.g.NumVertices(), in.g.NumEdges(), sp.inDim, sp.hid, sp.layers, sp.gpus,
		sp.cacheEntries, sp.qps, sp.zipfS, sp.updateEvery)

	// The oracle: a direct forward of each weight set over the same system,
	// before any query runs.
	ls := &loadState{srv: srv, weights: in.weights}
	for i, m := range in.weights {
		tr, err := sys.NewTrainer(m, in.features, dgcl.NewMatrix(in.g.NumVertices(), sp.hid))
		if err != nil {
			return nil, err
		}
		if ls.expected[i], err = tr.Forward(in.g.NumVertices()); err != nil {
			return nil, fmt.Errorf("oracle forward: %w", err)
		}
	}

	sp.runLoad(ls, sys, sp.queries(in, sp.warmupSeconds, 0), false)
	steal := startSteal()
	var phases []loadPhase
	if traced {
		plain := sp.runLoad(ls, sys, sp.queries(in, seconds/2, 1), false)
		phases = append(phases, plain, sp.runLoad(ls, sys, sp.queries(in, seconds/2, 2), true))
	} else {
		phases = append(phases, sp.runLoad(ls, sys, sp.queries(in, seconds, 1), false))
	}
	res.stealShare = steal.share()
	for _, ph := range phases {
		res.attempted += len(ph.queries)
		res.failed += ph.failed()
	}
	final := srv.Stats()
	res.check(len(final.Transitions) == 0, "no failover transitions (model versions map to weight sets)")
	res.note("served %d of %d queries correctly (%d shed, stale, wrong or failed)",
		res.attempted-res.failed, res.attempted, res.failed)
	var wrongRows, staleRows int
	for _, ph := range phases {
		for _, q := range ph.queries {
			switch q.out {
			case wrong:
				wrongRows++
			case stale:
				staleRows++
			}
		}
	}
	res.check(wrongRows == 0 && staleRows == 0, "every served row bitwise equal to the direct forward of its version (%d wrong, %d stale)", wrongRows, staleRows)

	if !traced {
		ph := phases[0]
		res.add("setup_s", median(setupTimes), "s")
		// The median query is a cache hit, which costs microseconds: its
		// latency is how soon the host runs a new goroutine, and it moved by
		// 25-30% between runs on a quiet host. The median of the queries
		// that reach the batched forward is the serving path's median.
		all, miss := latencies(ph.queries), missLatencies(ph.queries)
		res.add("op_s.p50", median(miss), "s")
		res.aside("query_s.p50", median(all), "s")
		res.aside("query_miss_s.p50", median(miss), "s")
		span := time.Duration(seconds * float64(time.Second))
		tail, windows, fewest := windowTail(ph.queries, sp.updateEvery, span, queryTail)
		res.check(windows > 0 && tailOK(fewest, queryTail),
			"query_s.p%g of each of %d update periods rests on at least %d samples beyond it (need %d)",
			queryTail*100, windows, beyond(fewest, queryTail), minBeyond)
		res.add("op_s.tail", tail, "s")
		res.aside(fmt.Sprintf("query_s.p%g", queryTail*100), tail, "s")
		res.aside("query_s.periods", float64(windows), "count")
		res.aside("query_s.p99", quantile(all, 0.99), "s")
		gp := float64(goodput(ph.queries, sp.limit)) / ph.seconds
		res.add("goodput_per_s", gp, "1/s")
		res.add("heap_peak_mb", ph.heapMB, "MB")
		res.add("ok_share", okShare(res.attempted, res.failed), "share")
		res.add("cpu_s_per_op", ph.cpuS/float64(len(ph.queries)), "s")
		res.aside("goodput_qps", gp, "1/s")
		res.aside("cpu_s_per_query", ph.cpuS/float64(len(ph.queries)), "s")
		res.aside("loadgen.late_s.max", ph.lateMax, "s")
		res.aside("host.steal_share", res.stealShare, "share")
		return res, nil
	}

	plain, ph := phases[0], phases[1]
	layers, err := replaySetupMedian(3, in.g, sp.gpus, sp.inDim, seed)
	if err != nil {
		return nil, err
	}
	layers.metrics(res.metrics)
	from, to := ph.statsFrom, ph.statsTo
	flushes := float64(to.Flushes - from.Flushes)
	perFlush := func(x float64) float64 {
		if flushes == 0 {
			return 0
		}
		return x / flushes
	}
	c := commDelta(ph.commFrom, ph.commTo)
	// The serving path runs no training epochs: its compute phases are
	// inside the server, out of the benchmark's reach, and its runtime
	// counts are per batched forward.
	for _, name := range []string{"gnn.fwd_crit_s", "gnn.bwd_crit_s", "gnn.busy_s",
		"runtime.fwd_ag_s", "runtime.bwd_ag_s", "runtime.allreduce_s"} {
		res.add(name, 0, "s")
	}
	res.add("runtime.bytes_per_epoch", perFlush(float64(c.bytes)), "B")
	res.add("runtime.msgs_per_epoch", perFlush(float64(c.msgs)), "count")
	res.add("runtime.relayed_bytes_per_epoch", perFlush(float64(c.relayed)), "B")
	res.add("runtime.retries", float64(c.retries), "count")
	res.add("runtime.timeouts", float64(c.timeouts), "count")
	pred, err := sys.SimulateAllgatherTime(seed)
	if err != nil {
		return nil, err
	}
	res.add("runtime.ag0_s", 0, "s")
	res.add("simnet.ag0_pred_s", pred, "s")
	res.add("runtime.ag0_over_pred", 0, "ratio")
	res.add("wire.send_s", 0, "s")
	res.add("wire.recv_wait_s", 0, "s")

	var hitS, missS []float64
	for i, q := range ph.queries {
		if q.out != answered {
			continue
		}
		if q.cached {
			hitS = append(hitS, ph.callS[i])
		} else {
			missS = append(missS, ph.callS[i])
		}
	}
	hits, misses := to.Hits-from.Hits, to.Misses-from.Misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	res.add("serve.hit_ratio", ratio, "share")
	res.add("serve.hit_s.p99", quantileOr0(hitS, 0.99), "s")
	res.add("serve.miss_s.p50", quantileOr0(missS, 0.5), "s")
	res.add("serve.miss_s.p99", quantileOr0(missS, 0.99), "s")
	res.add("serve.forwards_per_s", flushes/ph.seconds, "1/s")
	batchSum := to.AvgBatch*float64(to.Flushes) - from.AvgBatch*float64(from.Flushes)
	res.add("serve.batch_mean", perFlush(batchSum), "count")
	res.add("serve.flush_full_share", perFlush(float64(to.FlushFull-from.FlushFull)), "share")
	res.add("serve.update_s.p50", quantileOr0(ph.updateS, 0.5), "s")
	res.add("serve.shed", float64(to.ShedRate+to.ShedQueue-from.ShedRate-from.ShedQueue), "count")
	res.add("serve.errors", float64(to.Errors-from.Errors), "count")
	res.add("loadgen.late_s.max", ph.lateMax, "s")
	res.add("host.steal_share", res.stealShare, "share")
	k1, err := serveK1Epoch(sp, in)
	if err != nil {
		return nil, err
	}
	res.add("ref.k1_epoch_s", k1, "s")
	res.add("trace.overhead_share", median(missLatencies(ph.queries))/median(missLatencies(plain.queries)), "ratio")
	return res, nil
}

// serveK1Epoch is the median training epoch of the served model on the
// served graph on one GPU: a reference for how fast the host is.
func serveK1Epoch(sp serveSpec, in serveInputs) (float64, error) {
	ts := trainSpec{name: sp.name, ds: sp.ds, scale: sp.scale, gpus: 1, inDim: sp.inDim, hid: sp.hid, layers: sp.layers}
	tin := trainInputs{g: in.g, features: in.features, model: in.weights[0], seed: in.seed,
		targets: dgcl.RandomFeatures(in.g.NumVertices(), sp.hid, in.seed+2)}
	_, k1, err := ts.k1Reference(tin, 3)
	return k1, err
}

func quantileOr0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}

// addServeZeros reports the serving-layer metrics of a workload that does
// not serve.
func addServeZeros(res *result) {
	for _, m := range []struct{ name, unit string }{
		{"serve.hit_ratio", "share"}, {"serve.hit_s.p99", "s"}, {"serve.miss_s.p50", "s"},
		{"serve.miss_s.p99", "s"}, {"serve.forwards_per_s", "1/s"}, {"serve.batch_mean", "count"},
		{"serve.flush_full_share", "share"}, {"serve.update_s.p50", "s"}, {"serve.shed", "count"},
		{"serve.errors", "count"},
	} {
		res.add(m.name, 0, m.unit)
	}
}
