// Command perfbench is the engine's benchmark: three workloads driven
// through the public datablocks Table API in one process, each checked
// against an oracle, with a separately traced run that times calls into
// every engine layer from outside. See README.md in this directory for
// the workloads, the metrics and the layer → metric → end-to-end map.
//
//	perfbench --workload tpch-olap --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1). Any wrong result makes the
// command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// scale sizes a workload. full is the benchmark; small is the self-test.
type scale struct {
	name       string
	sf         float64 // TPC-H scale factor (tpch-olap, htap-durable)
	oltpRows   int     // oltp-point table size
	chunkRows  int     // htap-durable chunk size (0: the 2^16 default)
	ladderReps int     // repetitions of each direct layer call
}

var (
	fullScale  = scale{name: "full", sf: 0.1, oltpRows: 1_000_000, chunkRows: 8192, ladderReps: 3}
	smallScale = scale{name: "small", sf: 0.01, oltpRows: 100_000, chunkRows: 2048, ladderReps: 1}
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int    // timed set-ups of the untraced run
	rounds   int    // measured set-ups (the last ones) sharing seconds
	round    int    // the round being measured
	sc       scale  // the self-test sets smallScale
	outDir   string // span files and temporary databases, inside the checkout
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{sc: fullScale, outDir: ".bench_build/perfbench"}
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "tpch-olap | oltp-point | htap-durable")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: query order, keys, op mix, permutation")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	// setup_s is the median of several set-ups; oltp-point's is short
	// and takes more of them to be steady. oltp-point measures every one
	// of its set-ups for a fifth of the seconds: its table grows a version
	// per update, and short rounds from a fresh load keep it, the heap and
	// the collector's work from growing with the length of the run, while
	// the pooled rounds still measure the whole --seconds. The other
	// workloads measure their last set-up only, so that htap-durable's
	// background freezes and evictions get a whole run to happen.
	cfg.setups, cfg.rounds = 3, 1
	if cfg.workload == "oltp-point" {
		cfg.setups, cfg.rounds = 5, 5
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	res, err := runWorkload(&cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		if res == nil {
			return 1
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Println(string(line))
	if err != nil || !res.Correct {
		return 1
	}
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload sets the workload up cfg.setups times (setup_s is the
// median) and measures the last cfg.rounds set-ups for cfg.seconds in
// all, pooling their calls, and checks every result. With cfg.trace it
// then sets the workload up again, traced, cfg.rounds times, measures each
// set-up with the same choices as the untraced round of the same index,
// walks the layer ladder on the last one and checks again: the traced
// rounds start from the same states as the untraced ones, so their
// difference is the cost of tracing alone.
func runWorkload(cfg *config, out io.Writer) (*result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	printHost(out, cfg)
	defer w.close()
	res := &result{Metrics: map[string]metricValue{}}
	var verr error
	check := func() {
		att, failed, err := w.verify()
		res.Attempted += att
		res.Failed += failed
		if err != nil {
			fmt.Fprintf(out, "verify: %v\n", err)
			if verr == nil {
				verr = err
			}
		}
	}

	plain, setupTimes, err := runRounds(w, cfg, nil, cfg.setups, check)
	if err != nil {
		return nil, err
	}
	res.Attempted += plain.attempted
	res.Failed += plain.failed
	e2e := endToEnd(w, plain, median(setupTimes))
	printReport(out, "untraced", w, plain)
	plain = nil // millions of latency samples on oltp-point
	check()

	var tr *tracer
	if cfg.trace {
		if err := w.teardown(); err != nil {
			return nil, fmt.Errorf("teardown: %w", err)
		}
		tr = newTracer(cfg.workload)
		traced, tracedSetups, err := runRounds(w, cfg, tr, cfg.rounds, check)
		if err != nil {
			return nil, err
		}
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		e2eTraced := endToEnd(w, traced, median(tracedSetups))
		printReport(out, "traced", w, traced)
		layer := newMetricSet(perLayerMetrics)
		for _, d := range endToEndMetrics {
			layer.set("trace.overhead."+d.name, e2eTraced.get(d.name)-e2e.get(d.name))
		}
		layer.set("trace.spans", float64(len(tr.spans)))
		// The ladder rebuilds a second primary-key index next to the
		// table's; the soft limit keeps the collector from doubling that.
		debug.SetMemoryLimit(768 << 20)
		tb := tr.buf()
		if err := w.layers(cfg, traced, layer, tb); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		tb.flush()
		debug.SetMemoryLimit(math.MaxInt64)
		check()
		res.Metrics = layer.values()
	} else {
		res.Metrics = e2e.values()
	}

	res.Correct = res.Failed == 0 && verr == nil
	fmt.Fprintf(out, "error_rate %.6g ratio (failed %d of %d attempted)\n",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	if cfg.trace {
		path, err := tr.write(cfg.outDir, cfg.workload, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "spans written to %s (%d kept, %d dropped)\n", path, len(tr.spans), tr.dropped)
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation attempted")
	}
	return res, nil
}

// runRounds sets the workload up n times (traced when tr is not nil) and
// measures each of the last cfg.rounds set-ups for an equal share of
// cfg.seconds. Every round but the last is checked and torn down; the
// last stays up for the caller to report on and check. It returns the
// rounds pooled into one phase and every set-up's seconds.
func runRounds(w workload, cfg *config, tr *tracer, n int, check func()) (*phase, []float64, error) {
	sub := *cfg
	sub.seconds = cfg.seconds / float64(cfg.rounds)
	var pooled *phase
	var setupTimes []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := w.teardown(); err != nil {
				return nil, nil, fmt.Errorf("teardown: %w", err)
			}
		}
		el, err := timedSetup(w, tr)
		if err != nil {
			return nil, nil, err
		}
		setupTimes = append(setupTimes, el)
		sub.round = i - (n - cfg.rounds)
		if sub.round < 0 {
			continue
		}
		p := measure(w, &sub, tr)
		if pooled == nil {
			pooled = p
		} else {
			pooled.add(p)
		}
		if i < n-1 {
			check()
		}
	}
	return pooled, setupTimes, nil
}

// timedSetup frees the previous set-up's garbage, sets the workload up
// (traced when tr is not nil) and returns the seconds it took. prepare
// follows, untimed.
func timedSetup(w workload, tr *tracer) (float64, error) {
	freeMemory()
	tb := tr.buf()
	t0 := time.Now()
	if err := w.setup(tb); err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	el := time.Since(t0)
	tb.add(tr.rootID(), 0, "setup", t0, t0.Add(el))
	tb.flush()
	if err := w.prepare(); err != nil {
		return 0, fmt.Errorf("prepare: %w", err)
	}
	freeMemory()
	return el.Seconds(), nil
}

func (t *tracer) rootID() uint64 {
	if t == nil {
		return 0
	}
	return t.root
}

// freeMemory returns the previous step's garbage before the next timed
// one, so one step's collection debt is not paid inside another.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// printHost stamps the result with what the numbers depend on, so a run
// with GODEBUG=cpu.avx2=off is never compared with an AVX2 run.
func printHost(out io.Writer, cfg *config) {
	h := hostStamp()
	buf, _ := json.Marshal(h) // plain strings and ints: cannot fail
	fmt.Fprintf(out, "host %s\n", buf)
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %v scale %s setups %d rounds %d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.sc.name, cfg.setups, cfg.rounds)
	fmt.Fprintln(out, "note: tpch.Generate's data seed is fixed inside internal/tpch; --seed drives only the benchmark's choices")
}
