package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"dgcl"
	"dgcl/internal/gnn"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
	}{
		{100, 0.90, 10}, {99, 0.90, 9}, {180, 0.90, 18},
		{1000, 0.99, 10}, {999, 0.99, 9}, {12800, 0.99, 128},
		{10, 0.5, 5}, {0, 0.9, 0},
	} {
		if got := beyond(c.n, c.q); got != c.beyond {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.q, got, c.beyond)
		}
		if got, want := tailOK(c.n, c.q), c.beyond >= minBeyond; got != want {
			t.Errorf("tailOK(%d, %g) = %v, want %v", c.n, c.q, got, want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := quantile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90 (10 samples beyond)", got)
	}
	if got := median(xs); got != 50 {
		t.Errorf("median of 1..100 = %g, want 50", got)
	}
	if xs[0] != 100 {
		t.Error("quantile sorted its input in place")
	}
}

func TestGoodputCountsEveryFailureAsMissingTheLimit(t *testing.T) {
	const limit = 0.050
	qs := []queryRecord{
		{out: answered, latency: 0.001},
		{out: answered, latency: limit},
		{out: answered, latency: 0.051}, // late
		{out: shed, latency: 0.0001},
		{out: errored, latency: 0.0001},
		{out: stale, latency: 0.0001},
		{out: wrong, latency: 0.0001},
		{out: overflow},
	}
	if got := goodput(qs, limit); got != 2 {
		t.Errorf("goodput = %d, want 2", got)
	}
	lat := latencies(qs)
	for i, q := range qs {
		if q.out != answered && !math.IsInf(lat[i], 1) {
			t.Errorf("failed query %d has latency %g, want +Inf", i, lat[i])
		}
	}
	if p := quantile(lat, 0.5); !math.IsInf(p, 1) {
		t.Errorf("median with 5 of 8 failed = %g, want +Inf", p)
	}

	qs = append(qs, queryRecord{out: answered, latency: 0.0001, cached: true})
	miss := missLatencies(qs)
	if len(miss) != len(qs)-1 {
		t.Errorf("missLatencies kept %d of %d queries, want all but the cache hit", len(miss), len(qs))
	}
	for i, q := range qs[:len(qs)-1] {
		if q.out != answered && !math.IsInf(miss[i], 1) {
			t.Errorf("failed query %d has miss latency %g, want +Inf", i, miss[i])
		}
	}
}

func TestWindowTailIsTheMedianOfPerWindowTails(t *testing.T) {
	// Three one-second windows of 20 queries and a partial fourth. Window k
	// has latencies 1..20 ms scaled by k+1; window 1 also loses a query.
	var qs []queryRecord
	for k := 0; k < 3; k++ {
		for i := 1; i <= 20; i++ {
			due := time.Duration(k)*time.Second + time.Duration(i)*time.Millisecond
			qs = append(qs, queryRecord{out: answered, latency: float64(i*(k+1)) / 1000, due: due})
		}
	}
	qs[20+19].out = errored // window 1's slowest query fails: +Inf
	qs = append(qs, queryRecord{out: answered, latency: 9, due: 3500 * time.Millisecond})
	tail, windows, fewest := windowTail(qs, time.Second, 3*time.Second+900*time.Millisecond, 0.9)
	if windows != 3 || fewest != 20 {
		t.Errorf("windows, fewest = %d, %d; want 3, 20 (the partial window is dropped)", windows, fewest)
	}
	// p90 of 20 samples is the 18th: 18, 36 and 54 ms.
	if math.Abs(tail-0.036) > 1e-12 {
		t.Errorf("tail = %g, want 0.036 (the median window's p90)", tail)
	}
	qs[20+17].out, qs[20+16].out = shed, stale // window 1's p90 is now +Inf, the median is not
	if tail, _, _ = windowTail(qs, time.Second, 3*time.Second, 0.9); math.Abs(tail-0.054) > 1e-12 {
		t.Errorf("tail with a failed window = %g, want 0.054", tail)
	}
	if _, _, fewest = windowTail(qs[:40], time.Second, 3*time.Second, 0.9); fewest != 0 {
		t.Errorf("fewest with an empty window = %d, want 0", fewest)
	}
}

func TestPhaseGapArithmetic(t *testing.T) {
	// Two clients, two layers. Phases in execution order: fwd0, fwd1,
	// bwd1, bwd0; the epoch runs from 0 to 130 ns.
	slab := newSpanSlab(2, 2)
	spans := [][2][2]int64{
		{{10, 30}, {12, 40}},     // fwd0
		{{50, 60}, {55, 70}},     // fwd1
		{{80, 90}, {82, 95}},     // bwd1
		{{100, 110}, {105, 112}}, // bwd0
	}
	for p, s := range spans {
		for d := 0; d < 2; d++ {
			slab.start[d][p], slab.end[d][p] = s[d][0], s[d][1]
		}
	}
	if slab.fwdPhase(1) != 1 || slab.bwdPhase(1) != 2 || slab.bwdPhase(0) != 3 {
		t.Fatal("phase order is not fwd0 fwd1 bwd1 bwd0")
	}
	b := breakdown(2, 0, 130, slab.phases())
	ns := func(x float64) int64 { return int64(math.Round(x * 1e9)) }
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"ag0", ns(b.ag0), 10},                 // epoch start to first forward
		{"fwdAG", ns(b.fwdAG), 10 + (50 - 40)}, // plus the gap before layer 1
		{"fwdCrit", ns(b.fwdCrit), 28 + 15},    // slowest client per phase
		{"bwdAG", ns(b.bwdAG), 100 - 95},       // between backward phases
		{"bwdCrit", ns(b.bwdCrit), 13 + 10},
		{"allreduce", ns(b.allreduce), 130 - 112}, // last backward to epoch end
		{"busy", ns(b.busy), 20 + 28 + 10 + 15 + 10 + 13 + 10 + 7},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d ns, want %d", c.name, c.got, c.want)
		}
	}
}

func TestWrappedLayersGiveBitIdenticalLosses(t *testing.T) {
	sp := trainSpec{name: "test", ds: dgcl.WebGoogle, scale: 2048, gpus: 4, inDim: 16, hid: 8, layers: 2}
	in := sp.inputs(3)
	ts, err := sp.setup(in, sp.gpus, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.close()
	plain, err := runJob(ts, in, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := &tracer{slab: newSpanSlab(sp.gpus, sp.layers)}
	traced, err := runJob(ts, in, 3, tc)
	if err != nil {
		t.Fatal(err)
	}
	for e := range plain {
		if plain[e].err != nil || traced[e].err != nil {
			t.Fatalf("epoch %d: %v / %v", e, plain[e].err, traced[e].err)
		}
		if math.Float64bits(plain[e].loss) != math.Float64bits(traced[e].loss) {
			t.Errorf("epoch %d: traced loss %v != untraced %v", e, traced[e].loss, plain[e].loss)
		}
		if traced[e].br.fwdCrit <= 0 || traced[e].br.bwdCrit <= 0 {
			t.Errorf("epoch %d: no compute spans recorded: %+v", e, traced[e].br)
		}
	}

	tr, err := ts.sys.NewTrainer(in.model, in.features, in.targets)
	if err != nil {
		t.Fatal(err)
	}
	wrapLayers(tr, tc.slab)
	for l, layer := range tr.Models[0].Layers {
		if _, ok := layer.(gnn.ParamsOnlyBackward); !ok {
			t.Errorf("wrapped layer %d lost the ParamsOnlyBackward fast path", l)
		}
	}
}

func TestCompareRefusesDifferentCoreCounts(t *testing.T) {
	a := provenance{GOMAXPROCS: 2, NProc: 2, Workload: "train-dense", Seconds: 20}
	if err := comparable(a, a); err != nil {
		t.Fatalf("same provenance refused: %v", err)
	}
	b := a
	b.NProc = 4
	if err := comparable(a, b); !errors.Is(err, errCoreMismatch) {
		t.Errorf("nproc 2 vs 4: err = %v, want errCoreMismatch", err)
	}
	b = a
	b.GOMAXPROCS = 1
	if err := comparable(a, b); !errors.Is(err, errCoreMismatch) {
		t.Errorf("GOMAXPROCS 2 vs 1: err = %v, want errCoreMismatch", err)
	}
}
