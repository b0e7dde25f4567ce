package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"datablocks"
	"datablocks/internal/exec"
	"datablocks/internal/tpch"
	"datablocks/internal/types"
)

// The self-test runs every workload at the small scale for a fraction of
// a second, untraced and traced, and checks the output contract.

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestDeclaredMetricsMatchCode: BENCHMARK.json and the metric lists in
// metrics.go name the same metrics with the same units, and every ratio
// declares base counts that are themselves declared.
func TestDeclaredMetricsMatchCode(t *testing.T) {
	b := loadBenchmarkFile(t)
	check := func(kind string, declared map[string]string, code []metricDef) {
		if len(declared) != len(code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code %d", kind, len(declared), len(code))
		}
		for _, d := range code {
			if u, ok := declared[d.name]; !ok || u != d.unit {
				t.Errorf("%s: %s [%s] declared as [%s] (present %v)", kind, d.name, d.unit, u, ok)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", e2e, endToEndMetrics)
	layer := map[string]string{}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("per_layer", layer, perLayerMetrics)
	for _, d := range perLayerMetrics {
		if d.unit != "ratio" {
			continue
		}
		bases, ok := ratioBases[d.name]
		if !ok {
			t.Errorf("ratio %s has no base counts", d.name)
		}
		for _, base := range bases {
			if _, ok := layer[base]; !ok {
				t.Errorf("ratio %s: base %s not declared", d.name, base)
			}
		}
	}
	for _, w := range b.Workloads {
		cfg := &config{workload: w.Name, sc: smallScale}
		if _, err := newWorkload(cfg); err != nil {
			t.Errorf("declared workload %s: %v", w.Name, err)
		}
	}
}

func runSmall(t *testing.T, workload string, trace bool) (*result, string) {
	t.Helper()
	cfg := &config{workload: workload, seed: 7, seconds: 0.3, trace: trace, setups: 2, rounds: 1, sc: smallScale, outDir: t.TempDir()}
	if workload == "oltp-point" {
		cfg.rounds = 2 // pooled rounds, each checked
	}
	var out bytes.Buffer
	res, err := runWorkload(cfg, &out)
	if err != nil {
		t.Fatalf("%s trace=%v: %v\n%s", workload, trace, err, out.String())
	}
	return res, out.String()
}

// TestWorkloadsEmitDeclaredMetrics runs each workload small, untraced and
// traced: every declared metric is emitted with its unit, results are
// correct, the host is stamped, and ratios come with their bases.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	b := loadBenchmarkFile(t)
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			res, out := runSmall(t, w.Name, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w.Name, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			for _, field := range []string{"cpu_feature_level", "dispatch", "gomaxprocs", "nproc", "go_version", "data seed is fixed"} {
				if !strings.Contains(out, field) {
					t.Errorf("%s: output lacks %q", w.Name, field)
				}
			}
			want := map[string]string{}
			if trace {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, name, got, unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, got.Value)
				}
			}
			if !trace {
				continue
			}
			// A measured ratio has a measured denominator (the last base).
			for name, bases := range ratioBases {
				den := bases[len(bases)-1]
				if res.Metrics[name].Value != 0 && res.Metrics[den].Value == 0 {
					t.Errorf("%s: ratio %s = %v but its base %s is 0", w.Name, name, res.Metrics[name].Value, den)
				}
			}
		}
	}
}

// TestCheckersCatchCorruptReferences: each workload's result checker
// fails when its reference or oracle is deliberately wrong.
func TestCheckersCatchCorruptReferences(t *testing.T) {
	cfg := &config{seed: 3, seconds: 0.2, setups: 1, rounds: 1, sc: smallScale, outDir: t.TempDir()}

	t.Run("tpch-olap", func(t *testing.T) {
		c := *cfg
		c.workload = "tpch-olap"
		w := newOLAP(&c)
		defer w.close()
		if err := w.setup(nil); err != nil {
			t.Fatal(err)
		}
		if err := w.prepare(); err != nil {
			t.Fatal(err)
		}
		corruptFloat(t, w.ref[6], 1)
		if p := measure(w, &c, nil); p.failed == 0 {
			t.Fatalf("a corrupted Q6 reference was not caught (%d attempted)", p.attempted)
		}
	})

	t.Run("oltp-point", func(t *testing.T) {
		c := *cfg
		c.workload = "oltp-point"
		w := newOLTP(&c)
		defer w.close()
		if err := w.setup(nil); err != nil {
			t.Fatal(err)
		}
		if err := w.prepare(); err != nil {
			t.Fatal(err)
		}
		// The hottest key is looked up in every run.
		hot := w.slot[w.perm[0]]
		w.a[hot]++
		if p := measure(w, &c, nil); p.failed == 0 {
			t.Fatalf("a corrupted oracle entry was not caught (%d attempted)", p.attempted)
		}
	})

	t.Run("htap-durable", func(t *testing.T) {
		c := *cfg
		c.workload = "htap-durable"
		w := newHTAP(&c)
		defer w.close()
		if err := w.setup(nil); err != nil {
			t.Fatal(err)
		}
		if err := w.prepare(); err != nil {
			t.Fatal(err)
		}
		corruptFloat(t, w.ref[1], 1)
		p := measure(w, &c, nil)
		if p.failed == 0 {
			t.Fatalf("a corrupted Q1 reference was not caught (%d attempted)", p.attempted)
		}
		// An acknowledged write the database never saw must be reported
		// lost after the reopen.
		id := w.nextID + 1000
		w.acked[id] = datablocks.Row{datablocks.Int(id)}
		if _, failed, err := w.verify(); failed == 0 || err == nil {
			t.Fatalf("a write missing after reopen was not caught (failed=%d, err=%v)", failed, err)
		}
	})
}

// corruptFloat adds delta to the first float cell of a result.
func corruptFloat(t *testing.T, r *exec.Result, delta float64) {
	t.Helper()
	for c := range r.Cols {
		if r.Cols[c].Kind == types.Float64 && r.NumRows() > 0 {
			r.Cols[c].Floats[0] += delta
			return
		}
	}
	t.Fatal("result has no float cell")
}

// TestSameResultTolerance pins the float rule: serial results must match
// bit for bit, parallel ones within floatTol.
func TestSameResultTolerance(t *testing.T) {
	gen, err := tpch.Generate(smallScale.sf, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := gen.Query(6, exec.Options{Mode: exec.ModeJIT})
	if err != nil {
		t.Fatal(err)
	}
	clone := func(delta float64) *exec.Result {
		c := *want
		c.Cols = append([]exec.ResultCol(nil), want.Cols...)
		c.Cols[0].Floats = append([]float64(nil), want.Cols[0].Floats...)
		if delta == 0 {
			c.Cols[0].Floats[0] = math.Nextafter(c.Cols[0].Floats[0], math.Inf(1))
		} else {
			c.Cols[0].Floats[0] += delta
		}
		return &c
	}
	near, far := clone(0), clone(0.01)
	var diffs int64
	if err := sameResult(near, want, false, &diffs); err == nil {
		t.Error("serial: a last-bit difference passed")
	}
	if err := sameResult(near, want, true, &diffs); err != nil || diffs != 1 {
		t.Errorf("parallel: a last-bit difference failed (%v) or was not counted (%d)", err, diffs)
	}
	if err := sameResult(far, want, true, &diffs); err == nil {
		t.Error("parallel: a real difference passed")
	}
}

// TestTailPercentileFixed: a kind's tail is read at its own percentile
// however many samples a run collects; too few beyond it marks the tail
// noisy instead of moving to another percentile.
func TestTailPercentileFixed(t *testing.T) {
	samples := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(n - i) // 1..n, unsorted
		}
		return s
	}
	for _, tc := range []struct {
		n        int
		tail     int64
		beyond   int
		wantThin bool
	}{
		{n: 40, tail: 28, beyond: 12},
		{n: 34, tail: 24, beyond: 10},
		{n: 33, tail: 24, beyond: 9, wantThin: true},
		{n: 10, tail: 7, beyond: 3, wantThin: true},
	} {
		d := summarize(samples(tc.n), 70)
		if d.tailPct != 70 || d.tail != float64(tc.tail) || d.tailSeen != tc.beyond || d.thin() != tc.wantThin {
			t.Errorf("n=%d: p%g=%v with %d beyond (thin %v), want p70=%d with %d beyond (thin %v)",
				tc.n, d.tailPct, d.tail, d.tailSeen, d.thin(), tc.tail, tc.beyond, tc.wantThin)
		}
	}
	for _, w := range []string{"tpch-olap", "oltp-point", "htap-durable"} {
		wl, err := newWorkload(&config{workload: w, sc: smallScale})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range wl.kinds() {
			if k.tail < 50 || k.tail >= 100 {
				t.Errorf("%s %s: tail percentile %v", w, k.name, k.tail)
			}
		}
	}
}
