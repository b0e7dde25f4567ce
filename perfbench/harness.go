package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"datablocks/internal/exec"
	"datablocks/internal/simd"
)

// workload is one benchmark workload. Before each measured phase the
// harness calls setup (timed, several times, discarding all but the last
// with teardown) and prepare after every setup (untimed), then runs the
// clients closed loop, then layers (traced phase only), then verify.
type workload interface {
	// kinds lists the API call kinds the clients record latencies for.
	kinds() []kind
	setup(tb *spanBuf) error
	teardown() error
	// prepare takes references and oracles the first time it is called
	// and resets the oracle's per-phase state every time.
	prepare() error
	// clients returns the closed-loop clients of one measured phase.
	// Each round of a run draws its choices from phaseRNG, so a traced
	// round repeats the untraced round of the same index call for call on
	// an equal fresh set-up, until its clock runs out.
	clients(cfg *config) []clientFunc
	beforePhase()
	afterPhase(p *phase)
	bytesPerRow() float64
	// report maps the phase onto the metric names the workload table in
	// README.md uses (olap_qps, lookup_p50_us, ...).
	report(p *phase) []reportLine
	layers(cfg *config, p *phase, m metricSet, tb *spanBuf) error
	verify() (attempted, failed int64, err error)
	close()
}

type kind struct {
	name string
	read bool
	// tail is the percentile the kind's tail is read at. It is fixed per
	// workload and kind, so runs compare the same percentile, and chosen
	// from full-scale sample counts so that a 15 s run on a 2-vCPU host
	// leaves at least minBeyond samples beyond it: p60 for the TPC-H
	// queries (about 50-100 per kind and run; p60 needs 25), p99 for point and
	// write calls (thousands and more). Kinds pooled into one distribution
	// share it.
	tail float64
}

// clientFunc is one closed-loop client: it issues its next call only
// after the previous one returned, until the deadline.
type clientFunc func(start, deadline time.Time, tb *spanBuf, root uint64) clientOut

type clientOut struct {
	lat       *lat
	attempted int64
	failed    int64
	profiles  []qprof
	// floatDiffs counts result cells that matched the serial reference
	// only within floatTol (parallel float summation order).
	floatDiffs int64
	err        error // first failure, for the log
}

// qprof is one profiled query of a traced phase.
type qprof struct {
	q    int
	p    *exec.QueryProfile
	rows int // live rows of the scanned table when the query ran
}

// phase is one measured run of the clients, or several pooled.
type phase struct {
	rounds    int
	kinds     []kind
	elapsed   time.Duration
	lat       *lat
	attempted int64
	failed    int64
	profiles  []qprof
	gc        gcDelta
	// floatDiffs: see clientOut.
	floatDiffs int64
}

// dist summarizes the pooled samples of the given call kinds, with the
// tail at their shared percentile.
func (p *phase) dist(kinds ...int) dist {
	if len(kinds) == 0 {
		return dist{}
	}
	return p.lat.pooled(p.kinds[kinds[0]].tail, kinds...)
}

// add pools the calls of another round into p.
func (p *phase) add(o *phase) {
	p.rounds += o.rounds
	p.elapsed += o.elapsed
	p.lat.merge(o.lat)
	p.attempted += o.attempted
	p.failed += o.failed
	p.profiles = append(p.profiles, o.profiles...)
	p.gc = p.gc.add(o.gc)
	p.floatDiffs += o.floatDiffs
}

// rate is the phase's calls per second.
func (p *phase) rate() float64 { return float64(p.lat.count()) / p.elapsed.Seconds() }

func newWorkload(cfg *config) (workload, error) {
	switch cfg.workload {
	case "tpch-olap":
		return newOLAP(cfg), nil
	case "oltp-point":
		return newOLTP(cfg), nil
	case "htap-durable":
		return newHTAP(cfg), nil
	default:
		return nil, fmt.Errorf("unknown workload %q (tpch-olap, oltp-point, htap-durable)", cfg.workload)
	}
}

// phaseRNG is the source of a measured phase's choices: query order, key
// choice, op mix and new rows. It depends on the seed and the round alone.
func phaseRNG(cfg *config) *rand.Rand {
	return rand.New(rand.NewSource(cfg.seed*1000 + 1 + int64(cfg.round)))
}

func measure(w workload, cfg *config, tr *tracer) *phase {
	clients := w.clients(cfg)
	d := time.Duration(cfg.seconds * float64(time.Second))
	p := &phase{rounds: 1, kinds: w.kinds()}
	p.lat = newLat(time.Time{}, len(p.kinds))
	outs := make([]clientOut, len(clients))
	w.beforePhase()
	gc0 := readGC()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c clientFunc) {
			defer wg.Done()
			tb := tr.buf()
			outs[i] = c(start, deadline, tb, tr.rootID())
			tb.flush()
		}(i, c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.gc = readGC().sub(gc0)
	for _, o := range outs {
		p.lat.merge(o.lat)
		p.attempted += o.attempted
		p.failed += o.failed
		p.profiles = append(p.profiles, o.profiles...)
		p.floatDiffs += o.floatDiffs
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, o.err)
		}
	}
	w.afterPhase(p)
	return p
}

// endToEnd derives the end-to-end metrics of one phase. Each is defined
// for every workload: "read" calls are Table.Query and Table.Lookup,
// latencies are combined across call kinds as the geometric mean of the
// per-kind figures (the paper's Table 2 statistic), so a kind issued
// rarely weighs as much as a frequent one.
//
// Read latency is each kind's mean, not its p50. Lookup latency on
// oltp-point has two modes, Zipf-hot keys answered from cache (0.3-0.6
// us) and the rest from memory (1.4-3 us), and its p50 falls between
// them, where a few percent of calls changing mode with the other
// tenants' use of the shared cache move it by up to a third; the mean
// moves by that share of calls only.
//
// Write throughput and write tails are not among them: on htap-durable
// both follow the fsync latency of the disk, which on a shared host
// varies by more than a quarter between runs (the bound limit). They are
// in the report and in the per-layer metrics instead.
func endToEnd(w workload, p *phase, setup float64) metricSet {
	m := newMetricSet(endToEndMetrics)
	m.set("setup_s", setup)
	m.set("bytes_per_row", w.bytesPerRow())
	var reads int
	var rmean, rtail, ap50 []float64
	for i, k := range w.kinds() {
		d := p.dist(i)
		if d.n == 0 {
			continue
		}
		ap50 = append(ap50, d.p50/1e3)
		if k.read {
			reads += d.n
			rmean = append(rmean, d.mean/1e3)
			rtail = append(rtail, d.tail/1e3)
		}
	}
	m.set("reads_per_s", float64(reads)/p.elapsed.Seconds())
	m.set("read_mean_us", geomean(rmean))
	m.set("read_tail_us", geomean(rtail))
	m.set("call_p50_us", geomean(ap50))
	return m
}

type reportLine struct {
	name  string
	value float64
	unit  string
	note  string
}

func printReport(out io.Writer, label string, w workload, p *phase) {
	fmt.Fprintf(out, "%s phase: %.3fs, %d calls, %d attempted checks, %d failed, %d float cells off the serial bits, gc %d cycles %.1f%% cpu\n",
		label, p.elapsed.Seconds(), p.lat.count(), p.attempted, p.failed, p.floatDiffs, p.gc.cycles, 100*p.gc.cpuFraction())
	fmt.Fprintf(out, "%s calls started in each second of a round, summed over %d rounds: %v\n", label, p.rounds, p.lat.perSec)
	for i, k := range w.kinds() {
		d := p.dist(i)
		if d.n == 0 {
			continue
		}
		fmt.Fprintf(out, "%s call %-8s n=%-8d mean=%.3fus p50=%.3fus p%g=%.3fus (%d samples beyond%s)\n",
			label, k.name, d.n, d.mean/1e3, d.p50/1e3, d.tailPct, d.tail/1e3, d.tailSeen, thinMark(d))
	}
	for _, r := range w.report(p) {
		fmt.Fprintf(out, "%s metric %s %.6g %s %s\n", label, r.name, r.value, r.unit, r.note)
	}
}

// latLines reports the pooled p50 and tail of some call kinds under the
// workload table's names, with the tail's percentile and sample count.
func latLines(p *phase, name, unit string, div float64, kinds ...int) []reportLine {
	d := p.dist(kinds...)
	return []reportLine{
		{name: name + "_p50_" + unit, value: d.p50 / div, unit: unit, note: fmt.Sprintf("n=%d", d.n)},
		{name: name + "_tail_" + unit, value: d.tail / div, unit: unit, note: fmt.Sprintf("p%g, %d samples beyond%s", d.tailPct, d.tailSeen, thinMark(d))},
	}
}

// thinMark marks a tail read from fewer than minBeyond samples beyond it:
// the percentile stays the kind's own, but the figure is noisy.
func thinMark(d dist) string {
	if !d.thin() {
		return ""
	}
	return fmt.Sprintf("; fewer than %d: noisy", minBeyond)
}

// gcDelta is the Go runtime's collection work over one phase.
type gcDelta struct {
	gcCPU, totalCPU float64
	cycles          uint64
}

func (g gcDelta) cpuFraction() float64 { return ratio(g.gcCPU, g.totalCPU) }

func (g gcDelta) add(o gcDelta) gcDelta {
	return gcDelta{gcCPU: g.gcCPU + o.gcCPU, totalCPU: g.totalCPU + o.totalCPU, cycles: g.cycles + o.cycles}
}

func (g gcDelta) sub(o gcDelta) gcDelta {
	return gcDelta{gcCPU: g.gcCPU - o.gcCPU, totalCPU: g.totalCPU - o.totalCPU, cycles: g.cycles - o.cycles}
}

func readGC() gcDelta {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return gcDelta{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), cycles: s[2].Value.Uint64()}
}

type host struct {
	CPUFeature string                `json:"cpu_feature_level"`
	Dispatch   []simd.KernelDispatch `json:"dispatch"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	NumCPU     int                   `json:"nproc"`
	GoVersion  string                `json:"go_version"`
	GOOS       string                `json:"goos"`
	GOARCH     string                `json:"goarch"`
	GODEBUG    string                `json:"godebug"`
}

func hostStamp() host {
	return host{
		CPUFeature: simd.CPUFeatureLevel(),
		Dispatch:   simd.DispatchInfo(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GODEBUG:    os.Getenv("GODEBUG"),
	}
}
