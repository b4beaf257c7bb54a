package main

import (
	"context"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dgcl"
	"dgcl/internal/comm"
	"dgcl/internal/core"
	"dgcl/internal/gnn"
	"dgcl/internal/partition"
	"dgcl/internal/runtime"
	"dgcl/internal/tensor"
)

// The traced run records spans from the benchmark's side of each layer
// boundary: around every replica's gnn.Layer calls, around the wire
// transport's Send and Recv, and around the steps BuildCommInfo performs.
// The program itself carries no tracing hooks.

// clock is the monotonic time base every span is stamped against.
var clock = time.Now()

func now() int64 { return int64(time.Since(clock)) }

// spanSlab holds one epoch's compute spans: start and end (ns) per client
// and phase. Phases are in execution order: forward of layers 0..L-1, then
// backward of layers L-1..0. Each slot has exactly one writer (the client's
// goroutine), and the trainer joins those goroutines before EpochContext
// returns, so reading after the epoch needs no lock.
type spanSlab struct {
	layers     int
	start, end [][]int64
}

func newSpanSlab(clients, layers int) *spanSlab {
	s := &spanSlab{layers: layers, start: make([][]int64, clients), end: make([][]int64, clients)}
	for d := range s.start {
		s.start[d] = make([]int64, 2*layers)
		s.end[d] = make([]int64, 2*layers)
	}
	return s
}

func (s *spanSlab) fwdPhase(layer int) int { return layer }
func (s *spanSlab) bwdPhase(layer int) int { return 2*s.layers - 1 - layer }

// phaseSpan is one compute phase collapsed over clients.
type phaseSpan struct {
	first, last int64 // earliest client start, latest client end
	crit        int64 // the slowest client's span
	busy        int64 // client spans summed
}

// phases collapses the slab over clients.
func (s *spanSlab) phases() []phaseSpan {
	out := make([]phaseSpan, 2*s.layers)
	for p := range out {
		ps := phaseSpan{first: -1}
		for d := range s.start {
			st, en := s.start[d][p], s.end[d][p]
			if ps.first < 0 || st < ps.first {
				ps.first = st
			}
			if en > ps.last {
				ps.last = en
			}
			if en-st > ps.crit {
				ps.crit = en - st
			}
			ps.busy += en - st
		}
		out[p] = ps
	}
	return out
}

// epochBreakdown splits one epoch's wall time at the compute phases. The
// gaps between phases are where the trainer runs its collectives: the
// forward allgathers precede each forward phase, the backward allgathers
// sit between backward phases, and the gradient allreduce follows the last
// backward phase.
type epochBreakdown struct {
	fwdCrit, bwdCrit, busy  float64 // s
	fwdAG, bwdAG, allreduce float64 // s
	ag0                     float64 // s, the layer-0 forward allgather
}

// breakdown computes the phase-gap arithmetic for an epoch that ran from
// start to end (ns) with the given phases (execution order, 2·layers).
func breakdown(layers int, start, end int64, ph []phaseSpan) epochBreakdown {
	var b epochBreakdown
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	prevEnd := start
	for l := 0; l < layers; l++ {
		p := ph[l]
		gap := sec(p.first - prevEnd)
		if l == 0 {
			b.ag0 = gap
		}
		b.fwdAG += gap
		b.fwdCrit += sec(p.crit)
		b.busy += sec(p.busy)
		prevEnd = p.last
	}
	for i := layers; i < 2*layers; i++ {
		p := ph[i]
		if i > layers {
			b.bwdAG += sec(p.first - ph[i-1].last)
		}
		b.bwdCrit += sec(p.crit)
		b.busy += sec(p.busy)
	}
	b.allreduce = sec(end - ph[2*layers-1].last)
	return b
}

// tracedLayer times one replica's layer calls into a span slab.
type tracedLayer struct {
	gnn.Layer
	slab          *spanSlab
	client, layer int
}

func (t *tracedLayer) Forward(agg *gnn.Aggregator, h *tensor.Matrix) *tensor.Matrix {
	p := t.slab.fwdPhase(t.layer)
	t.slab.start[t.client][p] = now()
	out := t.Layer.Forward(agg, h)
	t.slab.end[t.client][p] = now()
	return out
}

func (t *tracedLayer) Backward(agg *gnn.Aggregator, gradOut *tensor.Matrix) *tensor.Matrix {
	p := t.slab.bwdPhase(t.layer)
	t.slab.start[t.client][p] = now()
	out := t.Layer.Backward(agg, gradOut)
	t.slab.end[t.client][p] = now()
	return out
}

// tracedParamsLayer keeps the gnn.ParamsOnlyBackward fast path of the
// layer it wraps, so the traced run does the same work as the untraced one.
type tracedParamsLayer struct {
	tracedLayer
	po gnn.ParamsOnlyBackward
}

func (t *tracedParamsLayer) BackwardParams(agg *gnn.Aggregator, gradOut *tensor.Matrix) {
	p := t.slab.bwdPhase(t.layer)
	t.slab.start[t.client][p] = now()
	t.po.BackwardParams(agg, gradOut)
	t.slab.end[t.client][p] = now()
}

// wrapLayers replaces every replica's layers with traced wrappers writing
// into slab.
func wrapLayers(tr *dgcl.Trainer, slab *spanSlab) {
	for d, m := range tr.Models {
		for l, inner := range m.Layers {
			tl := tracedLayer{Layer: inner, slab: slab, client: d, layer: l}
			if po, ok := inner.(gnn.ParamsOnlyBackward); ok {
				m.Layers[l] = &tracedParamsLayer{tracedLayer: tl, po: po}
			} else {
				m.Layers[l] = &tl
			}
		}
	}
}

// timedProvider decorates a transport provider (the wire fabric) and sums
// the time spent in Send and waiting in Recv over all clients.
type timedProvider struct {
	inner          runtime.TransportProvider
	sendNs, recvNs atomic.Int64
}

func (p *timedProvider) CollectiveTransport(stages [][]core.Transfer, ids []int) runtime.Transport {
	return &timedTransport{inner: p.inner.CollectiveTransport(stages, ids), p: p}
}

// timedTransport implements runtime.WrappingTransport, so the runtime still
// finds the wire transport's payload-copying and recycling markers beneath
// it and keeps those paths on.
type timedTransport struct {
	inner runtime.Transport
	p     *timedProvider
}

func (t *timedTransport) Unwrap() runtime.Transport { return t.inner }

func (t *timedTransport) Send(ctx context.Context, key runtime.TransferKey, tr core.Transfer, msg runtime.Message) error {
	s := now()
	err := t.inner.Send(ctx, key, tr, msg)
	t.p.sendNs.Add(now() - s)
	return err
}

func (t *timedTransport) Recv(ctx context.Context, key runtime.TransferKey, tr core.Transfer) (runtime.Message, error) {
	s := now()
	msg, err := t.inner.Recv(ctx, key, tr)
	t.p.recvNs.Add(now() - s)
	return msg, err
}

// commCounts are the transfer counters one stretch of work added, summed
// over GPUs.
type commCounts struct {
	bytes, msgs, relayed, retries, timeouts int64
}

func commDelta(before, after runtime.CommSnapshot) commCounts {
	var c commCounts
	for d := range after.PerGPU {
		a, b := after.PerGPU[d], before.PerGPU[d]
		c.bytes += a.SentBytes - b.SentBytes
		c.msgs += a.SentMsgs - b.SentMsgs
		c.relayed += a.RelayedBytes - b.RelayedBytes
		c.retries += a.Retries - b.Retries
		c.timeouts += a.Timeouts - b.Timeouts
	}
	return c
}

// setupLayers is one replay of BuildCommInfo's steps through the same
// public calls it makes on a single-machine fabric.
type setupLayers struct {
	kwayS, buildS, planS float64
	edgeCut, remoteRows  int64
	stages               int
	plannedCostS         float64
}

func replaySetup(g *dgcl.Graph, topo *dgcl.Topology, featureDim int, seed int64) (setupLayers, error) {
	var s setupLayers
	t0 := time.Now()
	p, err := partition.KWay(g, topo.NumGPUs(), partition.Options{Seed: seed})
	if err != nil {
		return s, fmt.Errorf("partition: %w", err)
	}
	t1 := time.Now()
	rel, err := comm.Build(g, p)
	if err != nil {
		return s, fmt.Errorf("relation: %w", err)
	}
	t2 := time.Now()
	plan, state, err := core.PlanSPST(rel, topo, int64(featureDim)*4, core.SPSTOptions{Seed: seed})
	if err != nil {
		return s, fmt.Errorf("plan: %w", err)
	}
	t3 := time.Now()
	s.kwayS, s.buildS, s.planS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	s.edgeCut = p.EdgeCut(g)
	s.remoteRows = rel.TotalRemoteVertices()
	s.stages = plan.NumStages()
	s.plannedCostS = state.Cost()
	return s, nil
}

// replaySetupMedian replays the setup steps n times and keeps the median
// time of each step (the counts are the same every time).
func replaySetupMedian(n int, g *dgcl.Graph, gpus, featureDim int, seed int64) (setupLayers, error) {
	var out setupLayers
	topo, err := dgcl.TopologyForGPUCount(gpus)
	if err != nil {
		return out, err
	}
	var kway, build, plan []float64
	for i := 0; i < n; i++ {
		s, err := replaySetup(g, topo, featureDim, seed)
		if err != nil {
			return out, err
		}
		out = s
		kway, build, plan = append(kway, s.kwayS), append(build, s.buildS), append(plan, s.planS)
	}
	out.kwayS, out.buildS, out.planS = median(kway), median(build), median(plan)
	return out, nil
}

func (s setupLayers) metrics(m *metricList) {
	m.add("partition.kway_s", s.kwayS, "s")
	m.add("comm.build_s", s.buildS, "s")
	m.add("core.plan_s", s.planS, "s")
	m.add("partition.edge_cut", float64(s.edgeCut), "count")
	m.add("comm.remote_rows", float64(s.remoteRows), "count")
	m.add("core.stages", float64(s.stages), "count")
	m.add("core.planned_cost_s", s.plannedCostS, "s")
}

// cpuTimes reads the aggregate CPU line of /proc/stat: the steal ticks and
// the total ticks. ok is false where the file is unavailable.
func cpuTimes() (steal, total int64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures the share of host CPU time stolen by the hypervisor
// between start and share.
type stealMeter struct{ steal, total int64 }

func startSteal() stealMeter {
	s, t, _ := cpuTimes()
	return stealMeter{s, t}
}

func (m stealMeter) share() float64 {
	s, t, ok := cpuTimes()
	if !ok || t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// cpuSeconds is the CPU time this process has used, user and system. Unlike
// wall time it does not grow while the hypervisor runs other guests on the
// host's cores.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// heapSampler tracks the peak of live heap object bytes while it runs.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func heapBytes() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.note()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.note()
			}
		}
	}()
	return h
}

func (h *heapSampler) note() {
	v := heapBytes()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// peakMB stops the sampler and returns the peak in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	h.wg.Wait()
	h.note()
	return float64(h.peak.Load()) / (1 << 20)
}
