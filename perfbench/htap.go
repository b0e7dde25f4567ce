package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"datablocks"
	"datablocks/internal/exec"
	"datablocks/internal/tpch"
	"datablocks/internal/types"
	"datablocks/internal/wal"
	"datablocks/internal/walfs"
)

// htap is htap-durable: lineitem in a durable database (write-ahead log,
// two write stripes, background freeze, a memory budget of half the
// frozen footprint), with a writer appending and updating rows durably
// while an analyst runs Q1 and Q6 on the same table.
//
// New rows ship after every date Q1 and Q6 select, and updates touch only
// new rows, so both queries' results stay equal to the reference taken
// before the writer started: every concurrent answer is checked exactly.
type htap struct {
	cfg    *config
	dir    string
	nSetup int
	db     *datablocks.DB
	tbl    *datablocks.Table
	plans  map[int]exec.Node
	ref    map[int]*exec.Result
	opt    datablocks.QueryOptions

	baseRows int
	tmpl     []datablocks.Row // a sample of the loaded rows, templates for new ones
	nextID   int64
	acked    map[int64]datablocks.Row // every acknowledged write's row
	recent   []int64                  // ids of the latest inserts, update targets
	budget   int64
	bytesRow float64 // bytes_per_row at the phase's htapBytesAt-th write

	m0, m1 datablocks.TableMetrics
}

const (
	hQ1 = iota
	hQ6
	hInsert
	hUpdate
)

// firstNewDay is the ship date of the first appended row: after Q1's
// cut-off (1998-09-02) and Q6's year (1994).
var firstNewDay = types.DateToDays(1999, time.January, 1)

func newHTAP(cfg *config) *htap {
	return &htap{cfg: cfg, opt: datablocks.QueryOptions{Mode: datablocks.ModeVectorizedSARGPSMA, Parallelism: 1}}
}

func (w *htap) kinds() []kind {
	return []kind{{"q1", true, 60}, {"q6", true, 60}, {"insert", false, 99}, {"update", false, 99}}
}

// setup loads lineitem in l_shipdate order with a surrogate key through a
// WAL table, freezes it, closes the database and reopens it with the
// memory budget set to half of the measured frozen footprint.
func (w *htap) setup(tb *spanBuf) error {
	t0 := time.Now()
	gen, err := tpch.Generate(w.cfg.sc.sf, 0)
	if err != nil {
		return err
	}
	src, n, err := readBack(gen.Lineitem)
	if err != nil {
		return err
	}
	schema := gen.Lineitem.Schema()
	ship := src[schema.MustColumn("l_shipdate")].Ints
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return ship[order[i]] < ship[order[j]] })
	cols := []datablocks.Column{{Name: "l_id", Kind: datablocks.Int64}}
	cols = append(cols, schema.Columns...)
	data := make([]datablocks.ColumnData, len(cols))
	data[0] = datablocks.ColumnData{Kind: datablocks.Int64, Ints: make([]int64, n)}
	for i := range order {
		data[0].Ints[i] = int64(i + 1)
	}
	for c := range src {
		d := datablocks.ColumnData{Kind: src[c].Kind}
		switch src[c].Kind {
		case datablocks.Int64:
			d.Ints = make([]int64, n)
			for i, o := range order {
				d.Ints[i] = src[c].Ints[o]
			}
		case datablocks.Float64:
			d.Floats = make([]float64, n)
			for i, o := range order {
				d.Floats[i] = src[c].Floats[o]
			}
		default:
			d.Strs = make([]string, n)
			for i, o := range order {
				d.Strs[i] = src[c].Strs[o]
			}
		}
		data[c+1] = d
	}
	tb.add(0, 0, "setup generate+sort", t0, time.Now())

	t0 = time.Now()
	w.nSetup++
	w.dir = filepath.Join(w.cfg.outDir, fmt.Sprintf("htap-%d-%d", os.Getpid(), w.nSetup))
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	db, err := datablocks.OpenPath(w.dir)
	if err != nil {
		return err
	}
	tbl, err := db.CreateTable("lineitem", cols, datablocks.WithPrimaryKey("l_id"), datablocks.WithWAL(),
		datablocks.WithWriteStripes(2), datablocks.WithChunkRows(w.cfg.sc.chunkRows))
	if err != nil {
		db.Close()
		return err
	}
	// BulkLoad logs every row to the WAL as a materialized tuple; loading
	// in slices of whole chunks bounds that to one slice's rows at a time
	// and leaves the chunk layout unchanged.
	step := 8 * w.cfg.sc.chunkRows
	for lo := 0; lo < n; lo += step {
		hi := min(lo+step, n)
		if err := tbl.BulkLoad(sliceCols(data, lo, hi), hi-lo); err != nil {
			db.Close()
			return fmt.Errorf("bulk load: %w", err)
		}
	}
	if err := tbl.FreezeAll(); err != nil {
		db.Close()
		return fmt.Errorf("freeze: %w", err)
	}
	st := tbl.Stats()
	frozen := int64(st.FrozenBytes + st.EvictedBytes)
	if err := db.Close(); err != nil {
		return fmt.Errorf("close after load: %w", err)
	}
	tb.add(0, 0, "setup load+freeze+close", t0, time.Now())

	t0 = time.Now()
	w.budget = frozen / 2
	db, err = datablocks.OpenPath(w.dir, datablocks.WithAutoFreeze(1), datablocks.WithMemoryBudget(w.budget))
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	w.db, w.tbl = db, db.Table("lineitem")
	if w.tbl == nil {
		return fmt.Errorf("reopen: table lineitem missing")
	}
	tb.add(0, 0, "setup open", t0, time.Now())
	tdb := &tpch.DB{SF: w.cfg.sc.sf, Lineitem: w.tbl.Relation()}
	w.plans = map[int]exec.Node{}
	for _, q := range []int{1, 6} {
		if w.plans[q], err = tdb.Plan(q); err != nil {
			return err
		}
	}
	w.baseRows = n
	w.tmpl = w.tmpl[:0]
	for i := 0; i < n; i += 1 + n/4096 {
		row := make(datablocks.Row, len(data))
		for c, d := range data {
			switch d.Kind {
			case datablocks.Int64:
				row[c] = datablocks.Int(d.Ints[i])
			case datablocks.Float64:
				row[c] = datablocks.Float(d.Floats[i])
			default:
				row[c] = datablocks.Str(d.Strs[i])
			}
		}
		w.tmpl = append(w.tmpl, row)
	}
	return nil
}

func (w *htap) teardown() error {
	var err error
	if w.db != nil { // verify has closed it
		err = w.db.Close()
	}
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	w.db, w.tbl = nil, nil
	return err
}

// prepare takes Q1's and Q6's reference in ModeJIT on the first loaded
// table (every set-up loads the same rows), and resets the writer's
// bookkeeping.
func (w *htap) prepare() error {
	if w.ref == nil {
		w.ref = map[int]*exec.Result{}
		for q, plan := range w.plans {
			res, err := exec.Run(plan, exec.Options{Mode: exec.ModeJIT, Parallelism: 1})
			if err != nil {
				return fmt.Errorf("reference q%d: %w", q, err)
			}
			w.ref[q] = res
		}
	}
	w.nextID = int64(w.baseRows) + 1
	w.acked = map[int64]datablocks.Row{}
	w.recent = nil
	return nil
}

// newRow copies a random template row under a new key, shipping after
// every loaded row.
func (w *htap) newRow(id int64, rng *rand.Rand) datablocks.Row {
	row := append(datablocks.Row(nil), w.tmpl[rng.Intn(len(w.tmpl))]...)
	sch := w.tbl.Schema()
	day := firstNewDay + (id-int64(w.baseRows))/256
	row[0] = datablocks.Int(id)
	row[sch.MustColumn("l_shipdate")] = datablocks.Int(day)
	row[sch.MustColumn("l_commitdate")] = datablocks.Int(day + 30)
	row[sch.MustColumn("l_receiptdate")] = datablocks.Int(day + 5)
	row[sch.MustColumn("l_returnflag")] = datablocks.Str("N")
	row[sch.MustColumn("l_linestatus")] = datablocks.Str("O")
	return row
}

func (w *htap) clients(cfg *config) []clientFunc {
	wrng := phaseRNG(cfg)
	sch := w.tbl.Schema()
	rf, ls := sch.MustColumn("l_returnflag"), sch.MustColumn("l_linestatus")
	writer := func(start, deadline time.Time, tb *spanBuf, root uint64) clientOut {
		out := clientOut{lat: newLat(start, len(w.kinds()))}
		for time.Now().Before(deadline) {
			out.attempted++
			if out.attempted == htapBytesAt {
				w.bytesRow = ratio(tableBytes(w.tbl))
			}
			if len(w.recent) == 0 || wrng.Intn(100) < 75 {
				id := w.nextID
				w.nextID++
				row := w.newRow(id, wrng)
				t0 := time.Now()
				_, err := w.tbl.Insert(row)
				d := time.Since(t0)
				out.lat.add(hInsert, t0, d)
				tb.add(root, 0, "Table.Insert", t0, t0.Add(d))
				if err != nil {
					out.failed++
					out.err = fmt.Errorf("insert %d: %w", id, err)
					continue
				}
				w.acked[id] = row
				if len(w.recent) < 1024 {
					w.recent = append(w.recent, id)
				} else {
					w.recent[id%1024] = id
				}
				continue
			}
			id := w.recent[wrng.Intn(len(w.recent))]
			row := append(datablocks.Row(nil), w.acked[id]...)
			row[ls] = datablocks.Str("F")
			row[rf] = datablocks.Str([]string{"A", "R"}[wrng.Intn(2)])
			t0 := time.Now()
			err := w.tbl.Update(id, row)
			d := time.Since(t0)
			out.lat.add(hUpdate, t0, d)
			tb.add(root, 0, "Table.Update", t0, t0.Add(d))
			if err != nil {
				out.failed++
				out.err = fmt.Errorf("update %d: %w", id, err)
				continue
			}
			w.acked[id] = row
		}
		return out
	}
	analyst := func(start, deadline time.Time, tb *spanBuf, root uint64) clientOut {
		out := clientOut{lat: newLat(start, len(w.kinds()))}
		for i := 0; time.Now().Before(deadline); i++ {
			q, k := 1, hQ1
			if i%2 == 1 {
				q, k = 6, hQ6
			}
			opt := w.opt
			opt.Profile = tb != nil
			t0 := time.Now()
			res, err := w.tbl.Query(w.plans[q], opt)
			d := time.Since(t0)
			out.attempted++
			if err == nil {
				err = sameResult(res, w.ref[q], w.opt.Parallelism > 1, &out.floatDiffs)
			}
			if err != nil {
				out.failed++
				out.err = fmt.Errorf("q%d: %w", q, err)
				continue
			}
			out.lat.add(k, t0, d)
			if tb != nil {
				id := tb.add(root, 0, fmt.Sprintf("Table.Query q%d", q), t0, t0.Add(d))
				tb.addProfile(id, id, t0, res.Profile)
				out.profiles = append(out.profiles, qprof{q: q, p: res.Profile, rows: w.tbl.NumRows()})
			}
		}
		return out
	}
	return []clientFunc{writer, analyst}
}

// htapBytesAt is the write after which bytes_per_row is taken: as in
// oltp-point, a fixed point of the workload rather than of the clock.
// About three seconds of writes on a 2-vCPU host.
const htapBytesAt = 10_000

func (w *htap) beforePhase() {
	w.m0 = w.tbl.Metrics()
	w.bytesRow = 0
}

func (w *htap) afterPhase(p *phase) { w.m1 = w.tbl.Metrics() }

func (w *htap) bytesPerRow() float64 {
	if w.bytesRow > 0 {
		return w.bytesRow
	}
	return ratio(tableBytes(w.tbl)) // the phase ended first
}

func (w *htap) report(p *phase) []reportLine {
	writes := len(p.lat.samples[hInsert]) + len(p.lat.samples[hUpdate])
	lines := []reportLine{{name: "durable_writes_per_s", value: float64(writes) / p.elapsed.Seconds(), unit: "writes/s"}}
	lines = append(lines, latLines(p, "write", "us", 1e3, hInsert, hUpdate)...)
	lines = append(lines, latLines(p, "q1", "ms", 1e6, hQ1)...)
	lines = append(lines, latLines(p, "q6", "ms", 1e6, hQ6)...)
	d := w.m1
	lines = append(lines,
		reportLine{name: "blockstore.reloads", value: float64(d.Cold.Reloads - w.m0.Cold.Reloads), unit: "count"},
		reportLine{name: "storage.freezes", value: float64(d.Freeze.Freezes - w.m0.Freeze.Freezes), unit: "count"},
		reportLine{name: "memory_budget", value: float64(w.budget), unit: "B"})
	return lines
}

func (w *htap) layers(cfg *config, p *phase, m metricSet, tb *spanBuf) error {
	l := newLadder(cfg, m, tb)
	l.apiLatencies(p, w.kinds())
	d0, d1 := w.m0, w.m1
	writes := float64(d1.Ops.Inserts + d1.Ops.Updates - d0.Ops.Inserts - d0.Ops.Updates)
	pubs := float64(d1.IndexPublishes - d0.IndexPublishes)
	m.set("index.publishes_per_write", ratio(pubs, writes))
	m.set("index.publishes", pubs)
	m.set("index.writes", writes)
	recs, batches := float64(d1.Wal.Records-d0.Wal.Records), float64(d1.Wal.Batches-d0.Wal.Batches)
	m.set("wal.records_per_batch", ratio(recs, batches))
	m.set("wal.records", recs)
	m.set("wal.batches", batches)
	m.set("wal.bytes_per_record", ratio(float64(d1.Wal.Bytes-d0.Wal.Bytes), recs))
	ev := float64(d1.Cold.Evictions - d0.Cold.Evictions)
	m.set("blockstore.evictions_per_s", ev/p.elapsed.Seconds())
	m.set("blockstore.evictions", ev)
	m.set("blockstore.read_bytes_per_reload", ratio(float64(d1.Store.BytesRead-d0.Store.BytesRead), float64(d1.Store.Loads-d0.Store.Loads)))
	l.freezeCost(float64(d1.Freeze.TotalNs-d0.Freeze.TotalNs), float64(d1.Freeze.Freezes-d0.Freeze.Freezes)*float64(cfg.sc.chunkRows))

	if err := l.execRuns(w.plans, w.opt); err != nil {
		return err
	}
	if err := l.queryOverhead(w.tbl, w.plans[6], w.opt); err != nil {
		return err
	}
	l.profiles(p)
	rel := w.tbl.Relation()
	if err := l.blocks(rel, lineitemSpec(rel, w.plans[1], w.plans[6])); err != nil {
		return err
	}
	// The key stream: the writer's recent keys (hot) and as many loaded
	// ones (frozen; under the memory budget about half of them reload
	// their block, a millisecond each, so the stream stays short).
	rng := rand.New(rand.NewSource(cfg.seed))
	keys := append([]int64(nil), w.recent...)
	for i := 0; i < len(w.recent); i++ {
		keys = append(keys, 1+rng.Int63n(int64(w.baseRows)))
	}
	tids, err := l.indexLookups(rel, 0, keys)
	if err != nil {
		return err
	}
	if err := l.pointGets(rel, tids); err != nil {
		return err
	}
	upd := append([]int64(nil), w.recent...)
	if len(upd) > 200 {
		upd = upd[:200]
	}
	rows := make([]datablocks.Row, len(upd))
	for i, id := range upd {
		rows[i] = append(datablocks.Row(nil), w.acked[id]...)
		rows[i][w.tbl.Schema().MustColumn("l_linestatus")] = datablocks.Str("F")
		w.acked[id] = rows[i]
	}
	if err := l.apiAllocs(w.tbl, keys, upd, rows); err != nil {
		return err
	}
	if len(w.recent) > 0 {
		if err := l.walCommit(w.dir, w.tbl.Schema(), w.acked[w.recent[0]]); err != nil {
			return err
		}
	}
	l.storageState([]*datablocks.Table{w.tbl})
	l.gc(p)
	return nil
}

// walCommit times wal.Open/Append/Wait of one record at a time on a
// scratch log next to the database: the fsync share of a durable write.
func (l *ladder) walCommit(dir string, schema *types.Schema, row datablocks.Row) error {
	path := filepath.Join(dir, "perfbench-commit.wal")
	var seq atomic.Uint64
	var st wal.Stats
	lg, _, err := wal.Open(walfs.OS, path, schema, &seq, &st)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	var per []float64
	for i := 0; i < 100*l.cfg.sc.ladderReps; i++ {
		t0 := time.Now()
		_, b, err := lg.Append(wal.OpInsert, row[0].Int(), row)
		if err == nil {
			err = lg.Wait(b)
		}
		if err != nil {
			lg.Close()
			return err
		}
		d := time.Since(t0)
		l.span("wal.Append+Wait", t0, d)
		per = append(per, float64(d))
	}
	l.m.set("wal.commit_us", median(per)/1e3)
	return lg.Close()
}

// verify closes the database, reopens it from its directory alone and
// checks that every acknowledged write is there with its last value.
func (w *htap) verify() (int64, int64, error) {
	if err := w.db.Close(); err != nil {
		return 1, 1, fmt.Errorf("close: %w", err)
	}
	w.db = nil
	db, err := datablocks.OpenPath(w.dir)
	if err != nil {
		return 1, 1, fmt.Errorf("reopen: %w", err)
	}
	defer func() {
		db.Close()
		os.RemoveAll(w.dir)
	}()
	tbl := db.Table("lineitem")
	if tbl == nil {
		return 1, 1, fmt.Errorf("reopen: table lineitem missing")
	}
	var att, failed int64
	var first error
	att++
	inserted := 0
	for id := range w.acked {
		if id > int64(w.baseRows) {
			inserted++
		}
	}
	if got, want := tbl.NumRows(), w.baseRows+inserted; got != want {
		failed++
		first = fmt.Errorf("reopened table has %d rows, want %d", got, want)
	}
	for id, want := range w.acked {
		att++
		got, ok := tbl.Lookup(id)
		if !ok || !sameRow(got, want) {
			failed++
			if first == nil {
				first = fmt.Errorf("acknowledged write %d lost after reopen: got %v (found %v), want %v", id, got, ok, want)
			}
		}
	}
	return att, failed, first
}

func (w *htap) close() {
	if w.db != nil {
		w.db.Close()
		os.RemoveAll(w.dir)
	}
}
