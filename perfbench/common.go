package main

import (
	"fmt"
	"math"

	"datablocks"
	"datablocks/internal/core"
	"datablocks/internal/exec"
	"datablocks/internal/storage"
	"datablocks/internal/types"
)

// readBack copies a freshly generated (all-hot) relation into the
// columnar batch form Table.BulkLoad takes. Kind is set on every column:
// BulkLoad on a WithWAL table switches on it.
func readBack(rel *storage.Relation) ([]core.ColumnData, int, error) {
	schema := rel.Schema()
	cols := make([]core.ColumnData, schema.NumColumns())
	n := 0
	for i, c := range schema.Columns {
		cols[i].Kind = c.Kind
	}
	for _, ch := range rel.Chunks() {
		h := ch.Hot()
		if h == nil {
			return nil, 0, fmt.Errorf("read back %v: chunk is not hot", schema.Names())
		}
		for i, c := range schema.Columns {
			switch c.Kind {
			case types.Int64:
				cols[i].Ints = append(cols[i].Ints, h.Ints(i)...)
			case types.Float64:
				cols[i].Floats = append(cols[i].Floats, h.Floats(i)...)
			default:
				cols[i].Strs = append(cols[i].Strs, h.Strs(i)...)
			}
			if nl := h.Nulls(i); nl != nil {
				if cols[i].Nulls == nil {
					cols[i].Nulls = make([]bool, n)
				}
				cols[i].Nulls = append(cols[i].Nulls, nl...)
			} else if cols[i].Nulls != nil {
				cols[i].Nulls = append(cols[i].Nulls, make([]bool, h.Rows())...)
			}
		}
		n += h.Rows()
	}
	return cols, n, nil
}

// sliceCols returns rows [lo, hi) of a columnar batch.
func sliceCols(cols []core.ColumnData, lo, hi int) []core.ColumnData {
	out := make([]core.ColumnData, len(cols))
	for i, c := range cols {
		out[i].Kind = c.Kind
		switch {
		case c.Ints != nil:
			out[i].Ints = c.Ints[lo:hi]
		case c.Floats != nil:
			out[i].Floats = c.Floats[lo:hi]
		default:
			out[i].Strs = c.Strs[lo:hi]
		}
		if c.Nulls != nil {
			out[i].Nulls = c.Nulls[lo:hi]
		}
	}
	return out
}

// sameResult reports the first difference between two query results.
// Integers, strings and NULLs must match exactly. Floats must match bit
// for bit when the query ran on one worker: serial results are
// bit-identical across scan modes, execution paths and storage states.
// With several morsel workers the engine's contract is agreement up to
// float summation order (internal/tpch's parallel test), so floats from a
// parallel run must match within floatTol relative error; bitDiffs counts
// the cells that matched only that way.
func sameResult(got, want *exec.Result, parallel bool, bitDiffs *int64) error {
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for c := range want.Cols {
		g, w := &got.Cols[c], &want.Cols[c]
		if g.Kind != w.Kind {
			return fmt.Errorf("column %d kind %v, want %v", c, g.Kind, w.Kind)
		}
		for r := 0; r < want.NumRows(); r++ {
			gn, wn := isNull(g, r), isNull(w, r)
			if gn != wn {
				return fmt.Errorf("row %d column %d null=%v, want %v", r, c, gn, wn)
			}
			if gn {
				continue
			}
			switch w.Kind {
			case types.Int64:
				if g.Ints[r] != w.Ints[r] {
					return fmt.Errorf("row %d column %d = %d, want %d", r, c, g.Ints[r], w.Ints[r])
				}
			case types.Float64:
				gf, wf := g.Floats[r], w.Floats[r]
				if math.Float64bits(gf) == math.Float64bits(wf) {
					continue
				}
				if !parallel || math.Abs(gf-wf) > floatTol*(1+math.Abs(wf)) {
					return fmt.Errorf("row %d column %d = %v, want %v", r, c, gf, wf)
				}
				*bitDiffs++
			default:
				if g.Strs[r] != w.Strs[r] {
					return fmt.Errorf("row %d column %d = %q, want %q", r, c, g.Strs[r], w.Strs[r])
				}
			}
		}
	}
	return nil
}

// floatTol is the relative error a parallel float result may differ by:
// far above summation-order noise (about 1e-16 per addition), far below
// any wrong row or group.
const floatTol = 1e-9

func isNull(c *exec.ResultCol, r int) bool { return c.Nulls != nil && c.Nulls[r] }

// tableBytes is a table's footprint: hot, frozen in RAM and evicted.
func tableBytes(t *datablocks.Table) (bytes, rows float64) {
	s := t.Stats()
	return float64(s.HotBytes + s.FrozenBytes + s.EvictedBytes), float64(t.NumRows())
}

// sameRow compares two rows value by value (floats by bit pattern).
func sameRow(got, want types.Row) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.IsNull() != w.IsNull() || g.Kind() != w.Kind() {
			return false
		}
		if w.IsNull() {
			continue
		}
		switch w.Kind() {
		case types.Int64:
			if g.Int() != w.Int() {
				return false
			}
		case types.Float64:
			if math.Float64bits(g.Float()) != math.Float64bits(w.Float()) {
				return false
			}
		default:
			if g.Str() != w.Str() {
				return false
			}
		}
	}
	return true
}

// leafScan returns the scan under a plan's order-by and aggregate.
func leafScan(n exec.Node) *exec.ScanNode {
	for {
		switch x := n.(type) {
		case *exec.ScanNode:
			return x
		case *exec.OrderByNode:
			n = x.Child
		case *exec.AggNode:
			n = x.Child
		default:
			return nil
		}
	}
}

// lineitemSpec is the block ladder on lineitem: Q1's columns unpacked,
// Q6's SARGs found, Q6's shipdate range looked up in the PSMA, the
// extended price summed as floats and the order keys hashed. It reads the
// columns and predicates from the engine's own plans.
func lineitemSpec(rel *storage.Relation, q1, q6 exec.Node) blockSpec {
	sch := rel.Schema()
	spec := blockSpec{
		unpackCols: leafScan(q1).Cols,
		findPreds:  leafScan(q6).Preds,
		psmaCol:    -1,
		sumCol:     sch.MustColumn("l_extendedprice"),
		sumDiv:     100,
		keyCol:     sch.MustColumn("l_orderkey"),
	}
	for _, p := range spec.findPreds {
		if p.Col == sch.MustColumn("l_shipdate") && p.Op == types.Between {
			spec.psmaCol, spec.psmaLo, spec.psmaHi = p.Col, p.Lo.Int(), p.Hi.Int()
		}
	}
	return spec
}
