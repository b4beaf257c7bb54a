package main

import (
	"context"
	"fmt"
	"math"
	rtm "runtime"
	"time"

	"dgcl"
	"dgcl/internal/comm/wire"
	"dgcl/internal/runtime"
)

// trainSpec is one training workload: a synthetic graph shaped like one of
// the paper's datasets, a GCN, and the fabric the collectives run on.
type trainSpec struct {
	name       string
	ds         dgcl.Dataset
	scale      int
	gpus       int
	inDim, hid int
	layers     int
	overWire   bool // every transfer crosses the loopback TCP fabric
}

var (
	trainDense = trainSpec{name: "train-dense", ds: dgcl.Reddit, scale: 512, gpus: 8,
		inDim: 602, hid: 256, layers: 2}
	trainSparseWire = trainSpec{name: "train-sparse-wire", ds: dgcl.WebGoogle, scale: 64, gpus: 8,
		inDim: 16, hid: 16, layers: 2, overWire: true}
)

const (
	// jobEpochs is the fixed epoch count of one training job; a run repeats
	// jobs from the same initial weights, so every job's losses must match
	// bit for bit.
	jobEpochs = 10
	// A run sets the system up at least setupRepeats times and until the
	// set-ups have taken setupSeconds, each time from a collected heap;
	// setup_s is the median. The host's speed drifts over tenths of a
	// second, so the median is taken over the same stretch of time whatever
	// one set-up costs.
	setupRepeats = 9
	setupSeconds = 2.0
	// epochTail is the tail percentile reported for epoch times.
	epochTail = 0.90
	learnRate = 0.01
)

// trainInputs are everything generated from the seed.
type trainInputs struct {
	g                 *dgcl.Graph
	features, targets *dgcl.Matrix
	model             *dgcl.Model
	seed              int64
}

func (sp trainSpec) inputs(seed int64) trainInputs {
	g := sp.ds.Generate(sp.scale, seed)
	return trainInputs{
		g:        g,
		features: dgcl.RandomFeatures(g.NumVertices(), sp.inDim, seed+1),
		targets:  dgcl.RandomFeatures(g.NumVertices(), sp.hid, seed+2),
		model:    dgcl.NewModel(dgcl.GCN, sp.inDim, sp.hid, sp.layers, seed),
		seed:     seed,
	}
}

// trainSystem is a system ready to train.
type trainSystem struct {
	sys  *dgcl.System
	fab  *wire.Fabric // nil over channels
	opts dgcl.RunOptions
}

func (ts *trainSystem) close() {
	if ts.fab != nil {
		ts.fab.Close()
	}
}

// setup takes the system from Init to a constructed trainer: partitioning,
// planning, fabric dial and the transport decorators System.Train installs.
func (sp trainSpec) setup(in trainInputs, gpus int, overWire bool) (*trainSystem, error) {
	topo, err := dgcl.TopologyForGPUCount(gpus)
	if err != nil {
		return nil, err
	}
	ts := &trainSystem{sys: dgcl.Init(topo, dgcl.Options{Seed: in.seed})}
	if err := ts.sys.BuildCommInfo(in.g, sp.inDim); err != nil {
		return nil, fmt.Errorf("build comm info: %w", err)
	}
	ts.opts = dgcl.RunOptions{CollectStats: true, DownAfter: runtime.DefaultDownAfter}
	if overWire {
		ts.fab, err = wire.NewLoopbackFabric(gpus, wire.Config{ClusterID: "perfbench", PlanSum: wire.PlanDigest(ts.sys.Plan())})
		if err != nil {
			return nil, fmt.Errorf("wire fabric: %w", err)
		}
		ts.opts.Transport = ts.fab
	}
	if err := ts.sys.SetRunOptions(ts.opts); err != nil {
		ts.close()
		return nil, err
	}
	if _, err := ts.sys.NewTrainer(in.model, in.features, in.targets); err != nil {
		ts.close()
		return nil, err
	}
	return ts, nil
}

// moreSetups reports whether a run that has timed the set-ups in times
// should set the system up again.
func moreSetups(times []float64) bool {
	spent := 0.0
	for _, t := range times {
		spent += t
	}
	return len(times) < setupRepeats || spent < setupSeconds
}

// setupTimed sets the system up for as long as moreSetups asks and keeps
// the last one.
func (sp trainSpec) setupTimed(in trainInputs) (*trainSystem, float64, error) {
	var times []float64
	var ts *trainSystem
	for moreSetups(times) {
		if ts != nil {
			ts.close()
		}
		rtm.GC()
		t0 := time.Now()
		var err error
		ts, err = sp.setup(in, sp.gpus, sp.overWire)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return ts, median(times), nil
}

// epochRecord is one epoch of a job.
type epochRecord struct {
	loss float64
	dur  float64 // s, EpochContext plus the optimizer step
	err  error
	// traced runs only
	br           epochBreakdown
	sendS, recvS float64
	comm         commCounts
}

// tracer holds what a traced job needs.
type tracer struct {
	slab *spanSlab
	tp   *timedProvider // nil over channels
}

// runJob trains jobEpochs epochs from the initial weights through the
// public trainer calls. A failed epoch ends the job.
func runJob(ts *trainSystem, in trainInputs, epochs int, tc *tracer) ([]epochRecord, error) {
	tr, err := ts.sys.NewTrainer(in.model, in.features, in.targets)
	if err != nil {
		return nil, err
	}
	if tc != nil {
		wrapLayers(tr, tc.slab)
	}
	opts := make([]dgcl.Optimizer, len(tr.Models))
	for i := range opts {
		opts[i] = dgcl.NewAdam(learnRate)
	}
	recs := make([]epochRecord, 0, epochs)
	stats := ts.sys.Stats()
	for e := 0; e < epochs; e++ {
		var before runtime.CommSnapshot
		if tc != nil {
			before = stats.Snapshot()
			if tc.tp != nil {
				tc.tp.sendNs.Store(0)
				tc.tp.recvNs.Store(0)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		t0 := time.Now()
		start := now()
		loss, err := tr.EpochContext(ctx)
		end := now()
		if err == nil {
			err = tr.StepWith(opts)
		}
		dur := time.Since(t0).Seconds()
		cancel()
		rec := epochRecord{loss: loss, dur: dur, err: err}
		if tc != nil && err == nil {
			rec.br = breakdown(tc.slab.layers, start, end, tc.slab.phases())
			if tc.tp != nil {
				rec.sendS = float64(tc.tp.sendNs.Load()) / 1e9
				rec.recvS = float64(tc.tp.recvNs.Load()) / 1e9
			}
			rec.comm = commDelta(before, stats.Snapshot())
		}
		recs = append(recs, rec)
		if err != nil {
			break
		}
	}
	return recs, nil
}

// trainPhase is the outcome of repeating jobs for a span of time.
type trainPhase struct {
	epochs   []epochRecord
	attempts int // epochs attempted
	failed   int // epochs that errored or whose loss differs from the reference
	wall     float64
	cpuS     float64
	heapMB   float64
}

// runJobs repeats jobs until seconds have elapsed, checking every epoch's
// loss bit for bit against the reference job.
func runJobs(ts *trainSystem, in trainInputs, ref []float64, seconds float64, tc *tracer) (trainPhase, error) {
	var ph trainPhase
	heap := startHeapSampler()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	for time.Since(t0).Seconds() < seconds {
		recs, err := runJob(ts, in, jobEpochs, tc)
		if err != nil {
			heap.peakMB()
			return ph, err
		}
		for e, r := range recs {
			ph.attempts++
			if r.err != nil || math.Float64bits(r.loss) != math.Float64bits(ref[e]) {
				ph.failed++
				continue
			}
			ph.epochs = append(ph.epochs, r)
		}
	}
	ph.wall = time.Since(t0).Seconds()
	ph.cpuS = cpuSeconds() - cpu0
	ph.heapMB = heap.peakMB()
	return ph, nil
}

func (ph trainPhase) durations() []float64 {
	out := make([]float64, len(ph.epochs))
	for i, r := range ph.epochs {
		out[i] = r.dur
	}
	return out
}

// referenceLosses runs one untimed job and returns its per-epoch losses.
func referenceLosses(ts *trainSystem, in trainInputs) ([]float64, error) {
	recs, err := runJob(ts, in, jobEpochs, nil)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(recs))
	for i, r := range recs {
		if r.err != nil {
			return nil, fmt.Errorf("reference epoch %d: %w", i, r.err)
		}
		if math.IsNaN(r.loss) || math.IsInf(r.loss, 0) {
			return nil, fmt.Errorf("reference epoch %d: loss %v", i, r.loss)
		}
		out[i] = r.loss
	}
	return out, nil
}

// k1Tolerance bounds the relative difference between the first-epoch loss
// on one GPU and on the partitioned cluster: the two sum neighbour rows in
// different orders, so they agree to float32 rounding, not bit for bit.
const k1Tolerance = 1e-5

// k1Reference trains the same task on one GPU: it returns the first
// epoch's loss and the median of the timed epochs after it.
func (sp trainSpec) k1Reference(in trainInputs, timedEpochs int) (float64, float64, error) {
	ts, err := sp.setup(in, 1, false)
	if err != nil {
		return 0, 0, fmt.Errorf("one-GPU reference: %w", err)
	}
	defer ts.close()
	recs, err := runJob(ts, in, 1+timedEpochs, nil)
	if err != nil {
		return 0, 0, err
	}
	var durs []float64
	for i, r := range recs {
		if r.err != nil {
			return 0, 0, fmt.Errorf("one-GPU reference epoch %d: %w", i, r.err)
		}
		if i > 0 {
			durs = append(durs, r.dur)
		}
	}
	med := 0.0
	if len(durs) > 0 {
		med = median(durs)
	}
	return recs[0].loss, med, nil
}

// runTrain runs one training workload.
func runTrain(sp trainSpec, seed int64, seconds float64, traced bool) (*result, error) {
	in := sp.inputs(seed)
	ts, setupS, err := sp.setupTimed(in)
	if err != nil {
		return nil, err
	}
	defer ts.close()
	res := newResult(sp.name)
	res.note("graph: %s at 1/%d scale, %d vertices, %d edges; GCN %d->%d, %d layers, %d GPUs, %s",
		sp.ds.Name, sp.scale, in.g.NumVertices(), in.g.NumEdges(), sp.inDim, sp.hid, sp.layers, sp.gpus,
		map[bool]string{true: "loopback TCP wire fabric", false: "in-process channels"}[sp.overWire])

	// The reference job doubles as warm-up: it compiles the routing
	// programs and dials every link before anything is timed.
	ref, err := referenceLosses(ts, in)
	if err != nil {
		return nil, err
	}
	res.note("reference job: %d finite losses, final %.6g", len(ref), ref[len(ref)-1])

	if sp.overWire {
		chanTS, err := sp.setup(in, sp.gpus, false)
		if err != nil {
			return nil, err
		}
		replay, err := referenceLosses(chanTS, in)
		chanTS.close()
		if err != nil {
			return nil, fmt.Errorf("channel replay: %w", err)
		}
		res.check(bitsEqual(replay, ref), "wire losses bit-identical to a replay over channels")
	}
	k1Epochs := 0
	if traced {
		k1Epochs = 3
	}
	k1Loss, k1Epoch, err := sp.k1Reference(in, k1Epochs)
	if err != nil {
		return nil, err
	}
	rel := math.Abs(k1Loss-ref[0]) / math.Abs(ref[0])
	res.check(rel <= k1Tolerance, "first-epoch loss within %.0e of one GPU (relative difference %.2e)", k1Tolerance, rel)

	if !traced {
		steal := startSteal()
		ph, err := runJobs(ts, in, ref, seconds, nil)
		if err != nil {
			return nil, err
		}
		res.stealShare = steal.share()
		res.attempted, res.failed = ph.attempts, ph.failed
		durs := ph.durations()
		res.add("setup_s", setupS, "s")
		res.add("op_s.p50", median(durs), "s")
		res.aside("epoch_s.p50", median(durs), "s")
		res.addTail("op_s.tail", "epoch_s", durs, epochTail)
		vps := float64(in.g.NumVertices()*len(ph.epochs)) / ph.wall
		res.add("goodput_per_s", vps, "1/s")
		res.add("heap_peak_mb", ph.heapMB, "MB")
		res.add("ok_share", okShare(ph.attempts, ph.failed), "share")
		res.add("cpu_s_per_op", ph.cpuS/float64(ph.attempts), "s")
		res.aside("train_vps", vps, "1/s")
		res.aside("cpu_s_per_epoch", ph.cpuS/float64(ph.attempts), "s")
		res.aside("loss_final", ref[len(ref)-1], "loss")
		res.aside("host.steal_share", res.stealShare, "share")
		return res, nil
	}

	// Traced run: the first half untraced, the second half with every
	// layer wrapped and the wire transport decorated; both halves run the
	// same jobs on the same system and must produce the same losses.
	steal := startSteal()
	plain, err := runJobs(ts, in, ref, seconds/2, nil)
	if err != nil {
		return nil, err
	}
	tc := &tracer{slab: newSpanSlab(sp.gpus, sp.layers)}
	if sp.overWire {
		tc.tp = &timedProvider{inner: ts.fab}
		opts := ts.opts
		opts.Transport = tc.tp
		if err := ts.sys.SetRunOptions(opts); err != nil {
			return nil, err
		}
	}
	tph, err := runJobs(ts, in, ref, seconds/2, tc)
	if err != nil {
		return nil, err
	}
	res.stealShare = steal.share()
	res.attempted = plain.attempts + tph.attempts
	res.failed = plain.failed + tph.failed
	res.check(tph.failed == 0 && len(tph.epochs) > 0, "traced losses bit-identical to untraced (%d traced epochs)", len(tph.epochs))

	layers, err := replaySetupMedian(3, in.g, sp.gpus, sp.inDim, seed)
	if err != nil {
		return nil, err
	}
	layers.metrics(res.metrics)
	pick := func(f func(r epochRecord) float64) float64 {
		xs := make([]float64, len(tph.epochs))
		for i, r := range tph.epochs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	res.add("gnn.fwd_crit_s", pick(func(r epochRecord) float64 { return r.br.fwdCrit }), "s")
	res.add("gnn.bwd_crit_s", pick(func(r epochRecord) float64 { return r.br.bwdCrit }), "s")
	res.add("gnn.busy_s", pick(func(r epochRecord) float64 { return r.br.busy }), "s")
	res.add("runtime.fwd_ag_s", pick(func(r epochRecord) float64 { return r.br.fwdAG }), "s")
	res.add("runtime.bwd_ag_s", pick(func(r epochRecord) float64 { return r.br.bwdAG }), "s")
	res.add("runtime.allreduce_s", pick(func(r epochRecord) float64 { return r.br.allreduce }), "s")
	res.add("runtime.bytes_per_epoch", pick(func(r epochRecord) float64 { return float64(r.comm.bytes) }), "B")
	res.add("runtime.msgs_per_epoch", pick(func(r epochRecord) float64 { return float64(r.comm.msgs) }), "count")
	res.add("runtime.relayed_bytes_per_epoch", pick(func(r epochRecord) float64 { return float64(r.comm.relayed) }), "B")
	var retries, timeouts int64
	for _, r := range tph.epochs {
		retries += r.comm.retries
		timeouts += r.comm.timeouts
	}
	res.add("runtime.retries", float64(retries), "count")
	res.add("runtime.timeouts", float64(timeouts), "count")
	ag0 := pick(func(r epochRecord) float64 { return r.br.ag0 })
	pred, err := ts.sys.SimulateAllgatherTime(seed)
	if err != nil {
		return nil, err
	}
	res.add("runtime.ag0_s", ag0, "s")
	res.add("simnet.ag0_pred_s", pred, "s")
	res.add("runtime.ag0_over_pred", ag0/pred, "ratio")
	res.add("wire.send_s", pick(func(r epochRecord) float64 { return r.sendS }), "s")
	res.add("wire.recv_wait_s", pick(func(r epochRecord) float64 { return r.recvS }), "s")
	addServeZeros(res)
	res.add("loadgen.late_s.max", 0, "s")
	res.add("host.steal_share", res.stealShare, "share")
	res.add("ref.k1_epoch_s", k1Epoch, "s")
	res.add("trace.overhead_share", median(tph.durations())/median(plain.durations()), "ratio")
	return res, nil
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func okShare(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(attempted-failed) / float64(attempted)
}
