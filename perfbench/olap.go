package main

import (
	"fmt"
	"sort"
	"time"

	"datablocks"
	"datablocks/internal/exec"
	"datablocks/internal/tpch"
)

// olap is tpch-olap: every TPC-H relation bulk-loaded through the Table
// API and frozen; one client runs the eight supported queries in seeded
// order through Table.Query.
type olap struct {
	cfg    *config
	db     *datablocks.DB
	tables map[string]*datablocks.Table
	gen    *tpch.DB // the last set-up's generated, unfrozen copy
	plans  map[int]exec.Node
	ref    map[int]*exec.Result
	opt    datablocks.QueryOptions
	// freezeNs/frozenRows are the set-up freeze's FreezeStats totals.
	freezeNs, frozenRows float64
}

// olapParallelism is tpch-olap's morsel workers: the host's two vCPUs.
const olapParallelism = 2

func newOLAP(cfg *config) *olap {
	return &olap{cfg: cfg, opt: datablocks.QueryOptions{Mode: datablocks.ModeVectorizedSARGPSMA, Parallelism: olapParallelism}}
}

func (w *olap) kinds() []kind {
	k := make([]kind, len(queries))
	for i, q := range queries {
		k[i] = kind{name: fmt.Sprintf("q%d", q), read: true, tail: 60}
	}
	return k
}

func (w *olap) setup(tb *spanBuf) error {
	w.freezeNs, w.frozenRows = 0, 0
	t0 := time.Now()
	gen, err := tpch.Generate(w.cfg.sc.sf, 0)
	if err != nil {
		return err
	}
	tb.add(0, 0, "setup generate", t0, time.Now())
	t0 = time.Now()
	db := datablocks.Open()
	tables := map[string]*datablocks.Table{}
	names := make([]string, 0, 8)
	for name := range gen.Relations() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rel := gen.Relations()[name]
		cols, n, err := readBack(rel)
		if err != nil {
			return err
		}
		t, err := db.CreateTable(name, rel.Schema().Columns)
		if err != nil {
			return err
		}
		if err := t.BulkLoad(cols, n); err != nil {
			return fmt.Errorf("bulk load %s: %w", name, err)
		}
		if err := t.FreezeAll(); err != nil {
			return fmt.Errorf("freeze %s: %w", name, err)
		}
		tables[name] = t
		w.freezeNs += float64(t.Metrics().Freeze.TotalNs)
		w.frozenRows += float64(n)
	}
	tb.add(0, 0, "setup load+freeze", t0, time.Now())
	tdb := &tpch.DB{
		SF:       w.cfg.sc.sf,
		Lineitem: tables["lineitem"].Relation(),
		Orders:   tables["orders"].Relation(),
		Customer: tables["customer"].Relation(),
		Part:     tables["part"].Relation(),
		Supplier: tables["supplier"].Relation(),
		Nation:   tables["nation"].Relation(),
		Region:   tables["region"].Relation(),
	}
	plans := map[int]exec.Node{}
	for _, q := range queries {
		p, err := tdb.Plan(q)
		if err != nil {
			return err
		}
		plans[q] = p
	}
	w.db, w.tables, w.plans = db, tables, plans
	if w.ref == nil {
		w.gen = gen // kept for prepare's reference
	}
	return nil
}

func (w *olap) teardown() error {
	err := w.db.Close()
	w.db, w.tables, w.gen, w.plans = nil, nil, nil, nil
	return err
}

// prepare computes each query's reference in ModeJIT (tuple at a time,
// one worker) on the first set-up's generated copy, which was never
// frozen. The queries change nothing, so there is no state to reset.
func (w *olap) prepare() error {
	if w.ref != nil {
		return nil
	}
	w.ref = map[int]*exec.Result{}
	for _, q := range queries {
		res, err := w.gen.Query(q, exec.Options{Mode: exec.ModeJIT})
		if err != nil {
			return fmt.Errorf("reference q%d: %w", q, err)
		}
		w.ref[q] = res
	}
	w.gen = nil
	return nil
}

func (w *olap) clients(cfg *config) []clientFunc {
	rng := phaseRNG(cfg)
	li := w.tables["lineitem"]
	return []clientFunc{func(start, deadline time.Time, tb *spanBuf, root uint64) clientOut {
		out := clientOut{lat: newLat(start, len(w.kinds()))}
		order := make([]int, len(queries))
		for time.Now().Before(deadline) {
			for i := range order {
				order[i] = i
			}
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, qi := range order {
				if !time.Now().Before(deadline) {
					break
				}
				q := queries[qi]
				opt := w.opt
				opt.Profile = tb != nil
				t0 := time.Now()
				res, err := li.Query(w.plans[q], opt)
				d := time.Since(t0)
				out.attempted++
				if err == nil {
					err = sameResult(res, w.ref[q], w.opt.Parallelism > 1, &out.floatDiffs)
				}
				if err != nil {
					out.failed++
					if out.err == nil {
						out.err = fmt.Errorf("q%d: %w", q, err)
					}
					continue
				}
				out.lat.add(qi, t0, d)
				if tb != nil {
					id := tb.add(root, 0, fmt.Sprintf("Table.Query q%d", q), t0, t0.Add(d))
					tb.addProfile(id, id, t0, res.Profile)
					out.profiles = append(out.profiles, qprof{q: q, p: res.Profile, rows: li.NumRows()})
				}
			}
		}
		return out
	}}
}

func (w *olap) beforePhase()        {}
func (w *olap) afterPhase(p *phase) {}

func (w *olap) bytesPerRow() float64 {
	var b, r float64
	for _, t := range w.tables {
		tb, tr := tableBytes(t)
		b += tb
		r += tr
	}
	return ratio(b, r)
}

func (w *olap) report(p *phase) []reportLine {
	var p50s []float64
	for i := range queries {
		if d := p.dist(i); d.n > 0 {
			p50s = append(p50s, d.p50/1e6)
		}
	}
	lines := []reportLine{
		{name: "olap_qps", value: p.rate(), unit: "queries/s"},
		{name: "olap_geomean_ms", value: geomean(p50s), unit: "ms", note: "geomean of per-query p50"},
	}
	lines = append(lines, latLines(p, "q1", "ms", 1e6, 0)...)
	lines = append(lines, latLines(p, "q6", "ms", 1e6, 4)...)
	return lines
}

func (w *olap) layers(cfg *config, p *phase, m metricSet, tb *spanBuf) error {
	li := w.tables["lineitem"]
	l := newLadder(cfg, m, tb)
	l.apiLatencies(p, nil)
	if err := l.execRuns(w.plans, w.opt); err != nil {
		return err
	}
	if err := l.queryOverhead(li, w.plans[6], w.opt); err != nil {
		return err
	}
	l.profiles(p)
	if err := l.blocks(li.Relation(), lineitemSpec(li.Relation(), w.plans[1], w.plans[6])); err != nil {
		return err
	}
	if err := l.pointGets(li.Relation(), nil); err != nil {
		return err
	}
	tabs := make([]*datablocks.Table, 0, len(w.tables))
	for _, t := range w.tables {
		tabs = append(tabs, t)
	}
	l.storageState(tabs)
	l.freezeCost(w.freezeNs, w.frozenRows)
	l.gc(p)
	return nil
}

func (w *olap) verify() (int64, int64, error) { return 0, 0, nil }

func (w *olap) close() {
	if w.db != nil {
		w.db.Close()
	}
}
