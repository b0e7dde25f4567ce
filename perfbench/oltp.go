package main

import (
	"fmt"
	"math/rand"
	"time"

	"datablocks"
)

// oltp is oltp-point: a keyed table bulk-loaded and frozen, then one
// client running Zipf-skewed point lookups, read-modify-write updates,
// inserts of new keys and deletes of live keys against an oracle.
type oltp struct {
	cfg *config
	db  *datablocks.DB
	tbl *datablocks.Table

	// The oracle, indexed by key: the last acknowledged value of each
	// column and whether the key is live.
	a, b []int64
	f    []float64
	s    []uint8
	live []bool

	// slot maps a Zipf position to the key living there (-1: deleted and
	// not yet refilled); perm maps a Zipf rank to a position, scattering
	// the hot keys over the key range.
	slot  []int64
	perm  []int32
	holes []int32

	m0       datablocks.TableMetrics
	bytesRow float64 // bytes_per_row at the round's oltpBytesAt-th call
	freezeNs float64
	keysSeen []int64 // a sample of the traced phase's key stream
}

var oltpStrs = []string{"alpha", "bravo", "charlie", "delta", "echo"}

const (
	kLookup = iota
	kUpdate
	kInsert
	kDelete
)

func newOLTP(cfg *config) *oltp { return &oltp{cfg: cfg} }

func (w *oltp) kinds() []kind {
	return []kind{{"lookup", true, 99}, {"update", false, 99}, {"insert", false, 99}, {"delete", false, 99}}
}

// setup generates the table's rows from the seed, bulk-loads them
// through the Table API and freezes them into Data Blocks.
func (w *oltp) setup(tb *spanBuf) error {
	n := w.cfg.sc.oltpRows
	rng := rand.New(rand.NewSource(w.cfg.seed))
	t0 := time.Now()
	ids := make([]int64, n)
	w.a, w.b = make([]int64, n), make([]int64, n)
	w.f, w.s = make([]float64, n), make([]uint8, n)
	w.live = make([]bool, n)
	strs := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		w.a[i] = rng.Int63n(1_000_000)
		w.b[i] = rng.Int63n(100)
		w.f[i] = float64(rng.Int63n(100_000_000)) / 100
		w.s[i] = uint8(rng.Intn(len(oltpStrs)))
		strs[i] = oltpStrs[w.s[i]]
		w.live[i] = true
	}
	tb.add(0, 0, "setup generate", t0, time.Now())
	t0 = time.Now()
	db := datablocks.Open()
	tbl, err := db.CreateTable("kv", []datablocks.Column{
		{Name: "id", Kind: datablocks.Int64},
		{Name: "a", Kind: datablocks.Int64},
		{Name: "b", Kind: datablocks.Int64},
		{Name: "f", Kind: datablocks.Float64},
		{Name: "s", Kind: datablocks.String},
	}, datablocks.WithPrimaryKey("id"))
	if err != nil {
		return err
	}
	cols := []datablocks.ColumnData{
		{Kind: datablocks.Int64, Ints: ids},
		{Kind: datablocks.Int64, Ints: append([]int64(nil), w.a...)},
		{Kind: datablocks.Int64, Ints: append([]int64(nil), w.b...)},
		{Kind: datablocks.Float64, Floats: append([]float64(nil), w.f...)},
		{Kind: datablocks.String, Strs: strs},
	}
	if err := tbl.BulkLoad(cols, n); err != nil {
		return err
	}
	if err := tbl.FreezeAll(); err != nil {
		return err
	}
	tb.add(0, 0, "setup load+freeze", t0, time.Now())
	w.db, w.tbl = db, tbl
	w.freezeNs = float64(tbl.Metrics().Freeze.TotalNs)
	return nil
}

func (w *oltp) teardown() error {
	err := w.db.Close()
	w.db, w.tbl = nil, nil
	return err
}

// prepare draws the seeded permutation of Zipf ranks over the key range
// once, and puts every loaded key back in its position (setup has reset
// the rest of the oracle).
func (w *oltp) prepare() error {
	n := w.cfg.sc.oltpRows
	if w.perm == nil {
		rng := rand.New(rand.NewSource(w.cfg.seed + 1))
		w.perm = make([]int32, n)
		for i, p := range rng.Perm(n) {
			w.perm[i] = int32(p)
		}
	}
	w.slot = make([]int64, n)
	for i := range w.slot {
		w.slot[i] = int64(i)
	}
	w.holes = nil
	return nil
}

func (w *oltp) row(key int64) datablocks.Row {
	return datablocks.Row{datablocks.Int(key), datablocks.Int(w.a[key]), datablocks.Int(w.b[key]),
		datablocks.Float(w.f[key]), datablocks.Str(oltpStrs[w.s[key]])}
}

// pick returns the Zipf position of the next key and the key there,
// stepping past deleted positions.
func (w *oltp) pick(z *rand.Zipf) (int32, int64) {
	pos := w.perm[z.Uint64()]
	for w.slot[pos] < 0 {
		pos = (pos + 1) % int32(len(w.slot))
	}
	return pos, w.slot[pos]
}

func (w *oltp) clients(cfg *config) []clientFunc {
	rng := phaseRNG(cfg)
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(w.perm)-1))
	w.keysSeen = w.keysSeen[:0]
	return []clientFunc{func(start, deadline time.Time, tb *spanBuf, root uint64) clientOut {
		out := clientOut{lat: newLat(start, len(w.kinds()))}
		fail := func(err error) {
			out.failed++
			if out.err == nil {
				out.err = err
			}
		}
		for i := 0; ; i++ {
			if i&63 == 0 && !time.Now().Before(deadline) {
				break
			}
			r := rng.Intn(100)
			out.attempted++
			if out.attempted == oltpBytesAt {
				w.bytesRow = ratio(tableBytes(w.tbl))
			}
			switch {
			case r < 80:
				_, key := w.pick(z)
				if len(w.keysSeen) < 100_000 {
					w.keysSeen = append(w.keysSeen, key)
				}
				t0 := time.Now()
				got, ok := w.tbl.Lookup(key)
				d := time.Since(t0)
				out.lat.add(kLookup, t0, d)
				tb.add(root, 0, "Table.Lookup", t0, t0.Add(d))
				if !ok || !sameRow(got, w.row(key)) {
					fail(fmt.Errorf("lookup %d: got %v (found %v), want %v", key, got, ok, w.row(key)))
				}
			case r < 90:
				_, key := w.pick(z)
				t0 := time.Now()
				got, ok := w.tbl.Lookup(key)
				d := time.Since(t0)
				out.lat.add(kLookup, t0, d)
				op := tb.add(root, 0, "read-modify-write", t0, t0.Add(d))
				tb.add(op, op, "Table.Lookup", t0, t0.Add(d))
				if !ok || !sameRow(got, w.row(key)) {
					fail(fmt.Errorf("update read %d: got %v (found %v), want %v", key, got, ok, w.row(key)))
					continue
				}
				row := datablocks.Row{got[0], datablocks.Int(got[1].Int() + 1), got[2], datablocks.Float(got[3].Float() + 0.5), got[4]}
				t0 = time.Now()
				err := w.tbl.Update(key, row)
				d = time.Since(t0)
				out.lat.add(kUpdate, t0, d)
				tb.add(op, op, "Table.Update", t0, t0.Add(d))
				if err != nil {
					fail(fmt.Errorf("update %d: %w", key, err))
					continue
				}
				w.a[key]++
				w.f[key] += 0.5
			case r < 95:
				key := int64(len(w.live))
				w.a = append(w.a, rng.Int63n(1_000_000))
				w.b = append(w.b, rng.Int63n(100))
				w.f = append(w.f, float64(rng.Int63n(100_000_000))/100)
				w.s = append(w.s, uint8(rng.Intn(len(oltpStrs))))
				w.live = append(w.live, true)
				row := w.row(key)
				t0 := time.Now()
				_, err := w.tbl.Insert(row)
				d := time.Since(t0)
				out.lat.add(kInsert, t0, d)
				tb.add(root, 0, "Table.Insert", t0, t0.Add(d))
				if err != nil {
					fail(fmt.Errorf("insert %d: %w", key, err))
					continue
				}
				if len(w.holes) > 0 {
					w.slot[w.holes[len(w.holes)-1]] = key
					w.holes = w.holes[:len(w.holes)-1]
				}
			default:
				pos, key := w.pick(z)
				t0 := time.Now()
				ok, err := w.tbl.Delete(key)
				d := time.Since(t0)
				out.lat.add(kDelete, t0, d)
				tb.add(root, 0, "Table.Delete", t0, t0.Add(d))
				if err != nil || !ok {
					fail(fmt.Errorf("delete %d: found %v, %v", key, ok, err))
					continue
				}
				w.live[key] = false
				w.slot[pos] = -1
				w.holes = append(w.holes, pos)
			}
		}
		return out
	}}
}

// oltpBytesAt is the call of a round after which bytes_per_row is taken.
// The table grows a version per update, so its size at the end of a timed
// round would rise with throughput; at a fixed call count it measures
// storage alone. About a second of calls on a 2-vCPU host, so a round of
// 2 s reaches it.
const oltpBytesAt = 300_000

func (w *oltp) beforePhase() {
	w.m0 = w.tbl.Metrics()
	w.bytesRow = 0
}

func (w *oltp) afterPhase(p *phase) {}

func (w *oltp) bytesPerRow() float64 {
	if w.bytesRow > 0 {
		return w.bytesRow
	}
	return ratio(tableBytes(w.tbl)) // the phase ended first
}

func (w *oltp) report(p *phase) []reportLine {
	lines := []reportLine{{name: "oltp_ops_per_s", value: p.rate(), unit: "ops/s"}}
	lines = append(lines, latLines(p, "lookup", "us", 1e3, kLookup)...)
	lines = append(lines, latLines(p, "write", "us", 1e3, kUpdate, kInsert, kDelete)...)
	return lines
}

func (w *oltp) layers(cfg *config, p *phase, m metricSet, tb *spanBuf) error {
	l := newLadder(cfg, m, tb)
	l.apiLatencies(p, w.kinds())
	m1 := w.tbl.Metrics()
	writes := float64(m1.Ops.Inserts + m1.Ops.Updates + m1.Ops.Deletes - w.m0.Ops.Inserts - w.m0.Ops.Updates - w.m0.Ops.Deletes)
	pubs := float64(m1.IndexPublishes - w.m0.IndexPublishes)
	m.set("index.publishes_per_write", ratio(pubs, writes))
	m.set("index.publishes", pubs)
	m.set("index.writes", writes)

	rel := w.tbl.Relation()
	tids, err := l.indexLookups(rel, 0, w.keysSeen)
	if err != nil {
		return err
	}
	if err := l.pointGets(rel, tids); err != nil {
		return err
	}
	// Allocation counts: lookups on the traced keys, updates of the live
	// ones (the oracle takes each update first).
	var upd []int64
	for _, k := range w.keysSeen {
		if len(upd) < 2000 && w.live[k] {
			upd = append(upd, k)
		}
	}
	rows := make([]datablocks.Row, len(upd))
	for i, k := range upd {
		w.a[k]++
		rows[i] = w.row(k)
	}
	if err := l.apiAllocs(w.tbl, w.keysSeen, upd, rows); err != nil {
		return err
	}
	spec := blockSpec{psmaCol: -1, sumCol: 3, keyCol: 0}
	if err := l.blocks(rel, spec); err != nil {
		return err
	}
	l.storageState([]*datablocks.Table{w.tbl})
	l.freezeCost(w.freezeNs, float64(w.cfg.sc.oltpRows))
	l.gc(p)
	return nil
}

// verify re-reads every key the oracle knows: live keys must resolve to
// the last acknowledged row, deleted keys must miss.
func (w *oltp) verify() (int64, int64, error) {
	var att, failed int64
	var first error
	for key := range w.live {
		att++
		got, ok := w.tbl.Lookup(int64(key))
		if ok != w.live[key] || (ok && !sameRow(got, w.row(int64(key)))) {
			failed++
			if first == nil {
				first = fmt.Errorf("final check of key %d: got %v (found %v)", key, got, ok)
			}
		}
	}
	return att, failed, first
}

func (w *oltp) close() {
	if w.db != nil {
		w.db.Close()
	}
}
