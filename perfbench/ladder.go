package main

import (
	"fmt"
	"runtime"
	"time"

	"datablocks"
	"datablocks/internal/compress"
	"datablocks/internal/core"
	"datablocks/internal/exec"
	"datablocks/internal/index"
	"datablocks/internal/simd"
	"datablocks/internal/storage"
	"datablocks/internal/types"
)

// ladder times direct calls into each engine layer from outside the
// engine, after a traced phase, and records one span per call batch. The
// engine itself is not instrumented.
type ladder struct {
	cfg  *config
	m    metricSet
	tb   *spanBuf
	root uint64
}

func newLadder(cfg *config, m metricSet, tb *spanBuf) *ladder {
	return &ladder{cfg: cfg, m: m, tb: tb, root: tb.t.root}
}

func (l *ladder) span(name string, t0 time.Time, d time.Duration) {
	l.tb.add(l.root, 0, "ladder "+name, t0, t0.Add(d))
}

// execRuns times exec.Run on each plan directly (no Table API), with the
// allocations each query makes.
func (l *ladder) execRuns(plans map[int]exec.Node, opt exec.Options) error {
	for _, q := range queries {
		plan, ok := plans[q]
		if !ok {
			continue
		}
		var ds, bytes, allocs []float64
		for r := 0; r < l.cfg.sc.ladderReps; r++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			if _, err := exec.Run(plan, opt); err != nil {
				return fmt.Errorf("exec.Run q%d: %w", q, err)
			}
			d := time.Since(t0)
			runtime.ReadMemStats(&m1)
			l.span(fmt.Sprintf("exec.Run q%d", q), t0, d)
			ds = append(ds, float64(d))
			bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc))
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		}
		l.m.set(fmt.Sprintf("exec.run_ms.q%d", q), median(ds)/1e6)
		l.m.set(fmt.Sprintf("exec.alloc_bytes_per_query.q%d", q), median(bytes))
		l.m.set(fmt.Sprintf("exec.allocs_per_query.q%d", q), median(allocs))
	}
	return nil
}

// queryOverhead is Table.Query minus exec.Run on the same plan, from
// alternating calls.
func (l *ladder) queryOverhead(t *datablocks.Table, plan exec.Node, opt exec.Options) error {
	var viaAPI, direct []float64
	for r := 0; r < 5*l.cfg.sc.ladderReps; r++ {
		t0 := time.Now()
		if _, err := t.Query(plan, opt); err != nil {
			return err
		}
		d := time.Since(t0)
		l.span("Table.Query", t0, d)
		viaAPI = append(viaAPI, float64(d))
		t0 = time.Now()
		if _, err := exec.Run(plan, opt); err != nil {
			return err
		}
		d = time.Since(t0)
		l.span("exec.Run", t0, d)
		direct = append(direct, float64(d))
	}
	l.m.set("api.query_overhead_us", (median(viaAPI)-median(direct))/1e3)
	return nil
}

// profiles derives the exec, core and blockstore metrics from the
// QueryProfiles of the traced phase's queries.
func (l *ladder) profiles(p *phase) {
	m := l.m
	build := map[int][]float64{}
	var selfNs, rowsIn [4]float64 // scan, filter, probe, agg
	var probeIn, probeHits float64
	var spilled, skew, unpacks []float64
	var fallbacks float64
	var q6Chunks, q6Skipped, q6Vectors, q6Pruned, q6Matched, q6Rows float64
	reloads := map[int][]float64{}
	var pinWait, frozenVisited, reloadsAll float64
	for _, qp := range p.profiles {
		pr := qp.p
		if pr == nil {
			continue
		}
		if !pr.BatchPath {
			fallbacks++
		}
		var maxBusy, minBusy time.Duration
		for i, w := range pr.Workers {
			if i == 0 || w.Busy > maxBusy {
				maxBusy = w.Busy
			}
			if i == 0 || w.Busy < minBusy {
				minBusy = w.Busy
			}
		}
		build[qp.q] = append(build[qp.q], float64(pr.Wall-maxBusy))
		for i, op := range pr.Operators {
			slot := -1
			switch op.Name {
			case "scan":
				slot = 0
			case "filter":
				slot = 1
			case "join", "semi-join", "anti-join":
				slot = 2
				probeIn += float64(op.RowsIn)
				probeHits += float64(op.ProbeHits)
			case "aggregate":
				slot = 3
				if qp.q == 1 {
					spilled = append(spilled, float64(op.SpilledGroups))
				}
			}
			if slot >= 0 {
				selfNs[slot] += float64(selfTime(pr, i))
				rowsIn[slot] += float64(op.RowsIn)
			}
		}
		s := pr.Scan
		switch qp.q {
		case 1:
			if minBusy > 0 {
				skew = append(skew, float64(maxBusy)/float64(minBusy))
			}
			unpacks = append(unpacks, float64(s.ColumnUnpacks))
		case 6:
			q6Chunks += float64(s.TotalChunks)
			q6Skipped += float64(s.SkippedChunks)
			q6Vectors += float64(s.Vectors)
			q6Pruned += float64(s.PrunedVectors)
			q6Matched += float64(s.RowsMatched)
			q6Rows += float64(qp.rows)
		}
		reloads[qp.q] = append(reloads[qp.q], float64(s.Reloads))
		pinWait += float64(s.PinWait)
		// A frozen chunk is pinned (and reloaded if evicted) before its
		// SMA can rule it out, so skipped chunks count as visits.
		frozenVisited += float64(s.FrozenChunks + s.SkippedChunks)
		reloadsAll += float64(s.Reloads)
	}
	for _, q := range joinQueries {
		if b := build[q]; len(b) > 0 {
			m.set(fmt.Sprintf("exec.build_ms.q%d", q), median(b)/1e6)
		}
	}
	for i, name := range []string{"scan", "filter", "probe", "agg"} {
		m.set("exec."+name+"_self_ns_per_row", ratio(selfNs[i], rowsIn[i]))
	}
	m.set("exec.probe_hit_ratio", ratio(probeHits, probeIn))
	m.set("exec.probe_rows_in", probeIn)
	m.set("exec.probe_hits", probeHits)
	m.set("exec.spilled_groups.q1", median(spilled))
	m.set("exec.worker_skew", median(skew))
	m.set("exec.batch_fallbacks", fallbacks)
	m.set("exec.profiled_queries", float64(len(p.profiles)))
	m.set("core.chunks_skipped_ratio.q6", ratio(q6Skipped, q6Chunks))
	m.set("core.q6_chunks", q6Chunks)
	m.set("core.q6_chunks_skipped", q6Skipped)
	m.set("core.vectors_pruned_ratio.q6", ratio(q6Pruned, q6Vectors))
	m.set("core.q6_vectors", q6Vectors)
	m.set("core.q6_vectors_pruned", q6Pruned)
	m.set("core.match_ratio.q6", ratio(q6Matched, q6Rows))
	m.set("core.q6_rows_matched", q6Matched)
	m.set("core.q6_rows_scanned", q6Rows)
	m.set("core.unpacks_per_query.q1", median(unpacks))
	m.set("blockstore.reloads_per_query.q1", mean(reloads[1]))
	m.set("blockstore.reloads_per_query.q6", mean(reloads[6]))
	m.set("blockstore.pin_wait_us_per_query", ratio(pinWait/1e3, float64(len(p.profiles))))
	if frozenVisited > 0 {
		m.set("blockstore.hit_ratio", 1-reloadsAll/frozenVisited)
	}
	m.set("blockstore.frozen_chunks_visited", frozenVisited)
	m.set("blockstore.reloads", reloadsAll)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// blockSpec names what the block-level ladder runs on one relation's
// frozen blocks. Empty fields skip that rung.
type blockSpec struct {
	unpackCols []int            // core.Scanner Next over these columns
	findPreds  []core.Predicate // core.Scanner NextMatches with these SARGs
	psmaCol    int              // -1: no PSMA rung
	psmaLo     int64
	psmaHi     int64
	sumCol     int     // column summed by the float kernel
	sumDiv     float64 // int column: decoded and divided by this; 0: float column
	keyCol     int     // int64 column hashed by the Mix64 kernel
}

// blocks walks every frozen block of rel (pinning evicted ones back in),
// timing the core scanner, the PSMA lookup and the simd kernels on the
// block's own code vectors, and tallying the compression per scheme.
func (l *ladder) blocks(rel *storage.Relation, spec blockSpec) error {
	reps := l.cfg.sc.ladderReps
	var unpackNs, unpackRows, findNs, findRows float64
	var psmaRows, psmaBlockRows float64
	var findBytes, findTime [3]float64 // widths 1, 2, 4
	var sumBytes, sumNs, keys, mixNs float64
	var bytesIn, bytesOut float64
	schemeOut := map[string]float64{}
	var batch core.Batch
	var out []uint32
	var floats []float64
	var ints []int64
	var hashes []uint64
	views := rel.Snapshot()
	t0 := time.Now()
	for vi := range views {
		v := &views[vi]
		if !v.IsFrozen() {
			continue
		}
		if err := v.Acquire(); err != nil {
			return err
		}
		blk := v.Block()
		n := blk.Rows()
		bytesIn += float64(blk.UncompressedSize())
		for a := 0; a < blk.NumAttrs(); a++ {
			sz := float64(blk.AttrCompressedSize(a))
			bytesOut += sz
			schemeOut[blk.Scheme(a).String()] += sz
		}
		for r := 0; r < reps; r++ {
			if len(spec.unpackCols) > 0 {
				s, err := core.NewScanner(blk, core.ScanSpec{Project: spec.unpackCols})
				if err != nil {
					v.Release()
					return err
				}
				t := time.Now()
				for s.Next(&batch) {
					unpackRows += float64(batch.N)
				}
				unpackNs += float64(time.Since(t))
			}
			if len(spec.findPreds) > 0 {
				s, err := core.NewScanner(blk, core.ScanSpec{Preds: spec.findPreds})
				if err != nil {
					v.Release()
					return err
				}
				t := time.Now()
				for {
					if _, ok := s.NextMatches(); !ok {
						break
					}
				}
				findNs += float64(time.Since(t))
				findRows += float64(n)
			}
			for a := 0; a < blk.NumAttrs(); a++ {
				data, width := codes(blk.Attr(a))
				wi := widthSlot(width)
				if data == nil || wi < 0 {
					continue
				}
				c2 := simd.ReadUint(data, n/2, width)
				t := time.Now()
				out = simd.Find(data, width, n, simd.OpBetween, 0, c2, 0, out[:0])
				findTime[wi] += float64(time.Since(t))
				findBytes[wi] += float64(n * width)
			}
			if spec.sumCol >= 0 {
				floats = floats[:0]
				if spec.sumDiv == 0 {
					for i := 0; i < n; i++ {
						floats = append(floats, blk.Float(spec.sumCol, i))
					}
				} else {
					ints = blk.AppendInts(spec.sumCol, ints[:0])
					for _, x := range ints {
						floats = append(floats, float64(x)/spec.sumDiv)
					}
				}
				t := time.Now()
				simd.SumFloat64(0, floats, nil)
				sumNs += float64(time.Since(t))
				sumBytes += float64(8 * len(floats))
			}
			if spec.keyCol >= 0 {
				ints = blk.AppendInts(spec.keyCol, ints[:0])
				if cap(hashes) < len(ints) {
					hashes = make([]uint64, len(ints))
				}
				t := time.Now()
				simd.HashInt64(ints, hashes[:len(ints)])
				mixNs += float64(time.Since(t))
				keys += float64(len(ints))
			}
		}
		if spec.psmaCol >= 0 {
			psmaRows += float64(psmaShare(blk.Attr(spec.psmaCol), n, spec.psmaLo, spec.psmaHi))
			psmaBlockRows += float64(n)
		}
		v.Release()
	}
	l.span("core+simd blocks", t0, time.Since(t0))
	m := l.m
	m.set("core.unpack_ns_per_row", ratio(unpackNs, unpackRows))
	m.set("core.unpack_rows", unpackRows)
	m.set("core.find_ns_per_row", ratio(findNs, findRows))
	m.set("core.find_rows", findRows)
	m.set("psma.range_share.q6", ratio(psmaRows, psmaBlockRows))
	m.set("psma.q6_block_rows", psmaBlockRows)
	m.set("psma.q6_range_rows", psmaRows)
	for i, w := range []string{"w1", "w2", "w4"} {
		m.set("simd.find_bytes_per_ns."+w, ratio(findBytes[i], findTime[i]))
	}
	m.set("simd.sum_f64_bytes_per_ns", ratio(sumBytes, sumNs))
	m.set("simd.mix64_ns_per_key", ratio(mixNs, keys))
	m.set("compress.ratio", ratio(bytesIn, bytesOut))
	m.set("compress.bytes_in", bytesIn)
	m.set("compress.bytes_out", bytesOut)
	for _, s := range []string{"uncompressed", "single", "dict", "trunc"} {
		m.set("compress.bytes_out."+s, schemeOut[s])
	}
	return nil
}

func widthSlot(width int) int {
	switch width {
	case 1:
		return 0
	case 2:
		return 1
	case 4:
		return 2
	}
	return -1
}

// codes returns an attribute's packed code vector and its width; nil for
// single-value and float attributes.
func codes(a *core.Attr) ([]byte, int) {
	switch a.Kind {
	case types.Int64:
		if a.Ints.Width == 0 || a.Ints.AllNull {
			return nil, 0
		}
		return a.Ints.Data, a.Ints.Width
	case types.String:
		if a.Strs.Width == 0 || a.Strs.AllNull {
			return nil, 0
		}
		return a.Strs.Data, a.Strs.Width
	}
	return nil, 0
}

// psmaShare is the number of rows the PSMA narrows a [lo, hi] range scan
// of the attribute to (all rows when the attribute has no PSMA).
func psmaShare(a *core.Attr, n int, lo, hi int64) int {
	if a.Kind != types.Int64 || a.Ints.AllNull {
		return n
	}
	tr := a.Ints.TranslateRange(lo, hi)
	switch tr.Verdict {
	case compress.None: // the block is skipped whole
		return 0
	case compress.Range:
		if a.Psma == nil {
			return n
		}
		mc := a.Ints.MinCode()
		return a.Psma.LookupRange(tr.C1-mc, tr.C2-mc).Len()
	default:
		return n
	}
}

// pointGets times storage.Relation.GetAt on frozen and on hot tuples.
// tids come from the workload's key stream; nil samples frozen rows
// uniformly.
func (l *ladder) pointGets(rel *storage.Relation, tids []storage.TupleID) error {
	if tids == nil {
		chunks := rel.Chunks()
		for i := 0; i < 100_000 && len(chunks) > 0; i++ {
			ci := (i * 7919) % len(chunks)
			if rows := chunks[ci].Rows(); rows > 0 {
				tids = append(tids, storage.TupleID{Chunk: uint32(ci), Row: uint32((i * 104729) % rows)})
			}
		}
	}
	var frozen, hot []storage.TupleID
	for _, tid := range tids {
		switch rel.Chunk(int(tid.Chunk)).State() {
		case storage.ChunkHot:
			hot = append(hot, tid)
		case storage.ChunkFrozen, storage.ChunkEvicted:
			frozen = append(frozen, tid)
		}
	}
	for _, set := range []struct {
		name string
		tids []storage.TupleID
	}{{"frozen", frozen}, {"hot", hot}} {
		if len(set.tids) == 0 {
			continue
		}
		var per []float64
		for r := 0; r < l.cfg.sc.ladderReps; r++ {
			e := rel.ReadEpoch()
			t0 := time.Now()
			for _, tid := range set.tids {
				rel.GetAt(tid, e)
			}
			d := time.Since(t0)
			l.span("storage.GetAt "+set.name, t0, d)
			per = append(per, float64(d)/float64(len(set.tids)))
		}
		l.m.set("core.point_get_ns."+set.name, median(per))
		l.m.set("core.point_gets."+set.name, float64(len(set.tids)))
	}
	return nil
}

// indexLookups rebuilds a primary-key index over rel from outside the
// table and times LookupRecord on the key stream. It returns the tuple
// ids the keys resolve to, for pointGets.
func (l *ladder) indexLookups(rel *storage.Relation, keyCol int, keys []int64) ([]storage.TupleID, error) {
	h := index.NewHash(0)
	t0 := time.Now()
	if err := h.Rebuild(rel, keyCol); err != nil {
		return nil, err
	}
	l.span("index.Rebuild", t0, time.Since(t0))
	var per []float64
	for r := 0; r < l.cfg.sc.ladderReps; r++ {
		t0 := time.Now()
		for _, k := range keys {
			h.LookupRecord(k)
		}
		d := time.Since(t0)
		l.span("index.LookupRecord", t0, d)
		per = append(per, float64(d)/float64(len(keys)))
	}
	l.m.set("index.lookup_ns", median(per))
	tids := make([]storage.TupleID, 0, len(keys))
	for _, k := range keys {
		if rec, ok := h.LookupRecord(k); ok {
			tids = append(tids, rec.Cur)
		}
	}
	return tids, nil
}

// storageState reports the tables' hot share and MVCC backlog.
func (l *ladder) storageState(tables []*datablocks.Table) {
	var hot, live, retired float64
	for _, t := range tables {
		for _, c := range t.Relation().Chunks() {
			if c.State() == storage.ChunkHot {
				hot += float64(c.LiveRows())
			}
		}
		live += float64(t.NumRows())
		retired += float64(t.Metrics().Epoch.RetiredRows)
	}
	l.m.set("storage.hot_row_share", ratio(hot, live))
	l.m.set("storage.hot_rows", hot)
	l.m.set("storage.live_rows", live)
	l.m.set("storage.retired_rows", retired)
}

// freezeCost reports a FreezeStats delta: time inside core.Freeze per
// frozen row.
func (l *ladder) freezeCost(ns, rows float64) {
	l.m.set("storage.freeze_ns_per_row", ratio(ns, rows))
	l.m.set("storage.frozen_rows", rows)
}

// apiLatencies reports the traced phase's median per API call kind.
func (l *ladder) apiLatencies(p *phase, kinds []kind) {
	for i, k := range kinds {
		name := "api." + k.name + "_ns"
		if _, ok := l.m.vals[name]; !ok {
			continue
		}
		l.m.set(name, p.dist(i).p50)
	}
	var writes []int
	for i, k := range kinds {
		if !k.read {
			writes = append(writes, i)
		}
	}
	if d := p.dist(writes...); d.n > 0 {
		l.m.set("api.write_tail_us", d.tail/1e3)
		l.m.set("api.writes_per_s", float64(d.n)/p.elapsed.Seconds())
	}
	l.m.set("api.traced_calls", float64(p.lat.count()))
}

func (l *ladder) gc(p *phase) {
	l.m.set("gc.cpu_fraction", p.gc.cpuFraction())
	l.m.set("gc.cycles", float64(p.gc.cycles))
}

// apiAllocs counts the heap allocations per Table.Lookup on keys and per
// Table.Update of upd[i] to rows[i]; the rows are built beforehand so only
// the engine's allocations are counted.
func (l *ladder) apiAllocs(t *datablocks.Table, keys, upd []int64, rows []datablocks.Row) error {
	if len(keys) > 20_000 {
		keys = keys[:20_000]
	}
	if len(keys) > 0 {
		n, _ := mallocs(func() error {
			for _, k := range keys {
				t.Lookup(k)
			}
			return nil
		})
		l.m.set("api.allocs_per_lookup", float64(n)/float64(len(keys)))
	}
	if len(upd) == 0 {
		return nil
	}
	n, err := mallocs(func() error {
		for i, k := range upd {
			if err := t.Update(k, rows[i]); err != nil {
				return fmt.Errorf("update %d: %w", k, err)
			}
		}
		return nil
	})
	l.m.set("api.allocs_per_write", float64(n)/float64(len(upd)))
	return err
}

// mallocs counts the heap allocations fn makes.
func mallocs(fn func() error) (uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, err
}
