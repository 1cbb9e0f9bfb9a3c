package main

import (
	"runtime"
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/par"
	"github.com/sematype/pythagoras/internal/table"
)

// stageSplit accumulates the traced stage calls of driveStages.
type stageSplit struct {
	tables, chunks, targets int
	nodes, edges            int
	graphAlloc, encodeAlloc uint64 // bytes
	forwardAlloc            uint64
}

// driveStages runs one batch of tables through the inference pipeline's
// public stage functions, one call at a time, under spans named after the
// layers: graph.build and lm.encode per table, then core.union,
// core.forward and core.decode per chunk. Chunks follow the engine's
// split (par.Bounds over workers, at most maxBatch tables). Allocation is
// read around each call. It returns the predictions, which match the
// engine's bit for bit.
func driveStages(tr *tracer, m *core.Model, ts []*table.Table, workers, maxBatch int, req int64, split *stageSplit) [][]core.ColumnPrediction {
	root := tr.begin("stages", -1, req)
	defer tr.end(root)
	var ms runtime.MemStats
	allocNow := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	ps := make([]*core.Prepared, len(ts))
	for i, t := range ts {
		work := placeholderTypes(t)
		a0 := allocNow()
		id := tr.begin("graph.build", root, req)
		g := m.BuildGraph(work)
		tr.end(id)
		a1 := allocNow()
		id = tr.begin("lm.encode", root, req)
		ps[i] = m.Encode(work, g)
		tr.end(id)
		a2 := allocNow()
		split.graphAlloc += a1 - a0
		split.encodeAlloc += a2 - a1
		split.tables++
		split.nodes += g.NumNodes()
		for _, el := range g.Edges {
			if el != nil {
				split.edges += el.Len()
			}
		}
	}
	out := make([][]core.ColumnPrediction, len(ts))
	for _, bd := range par.Bounds(len(ts), workers, maxBatch) {
		lo, hi := bd[0], bd[1]
		id := tr.begin("core.union", root, req)
		p := ps[lo]
		if hi-lo > 1 {
			p = core.UnionPrepared(ps[lo:hi])
		}
		tr.end(id)
		a0 := allocNow()
		id = tr.begin("core.forward", root, req)
		probs, targets := m.InferProbs(p)
		tr.end(id)
		split.forwardAlloc += allocNow() - a0
		id = tr.begin("core.decode", root, req)
		at := 0
		for k := lo; k < hi; k++ {
			n := len(ps[k].Graph.TargetNodes())
			out[k] = m.DecodePredictions(p, probs, targets, at, at+n, ts[k])
			at += n
		}
		tr.end(id)
		split.chunks++
		split.targets += len(targets)
	}
	return out
}

// placeholderTypes mirrors core.Model.PrepareForPrediction: an unlabeled
// column gets a placeholder gold type before graph construction.
func placeholderTypes(t *table.Table) *table.Table {
	work := &table.Table{Name: t.Name, ID: t.ID}
	for _, c := range t.Columns {
		cc := *c
		if cc.SemanticType == "" {
			cc.SemanticType = "?"
		}
		work.Columns = append(work.Columns, &cc)
	}
	return work
}

// reportStages sets the core/lm/graph per-layer metrics from the spans of
// driveStages and the split's counters, and the forward and encode shares
// of the stage self time.
func reportStages(b *bench, split *stageSplit) {
	ls := b.tr.layers()
	self := func(name string) time.Duration {
		if lt := ls[name]; lt != nil {
			return lt.Self
		}
		return 0
	}
	per := func(d time.Duration, n int, scale float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / scale / float64(n)
	}
	b.set("core.forward_ms_per_chunk", per(self("core.forward"), split.chunks, 1e6))
	b.set("core.forward_us_per_target", per(self("core.forward"), split.targets, 1e3))
	b.set("core.forward_alloc_kb_per_chunk", per(time.Duration(split.forwardAlloc), split.chunks, 1024))
	b.set("core.union_us_per_chunk", per(self("core.union"), split.chunks, 1e3))
	b.set("core.decode_us_per_chunk", per(self("core.decode"), split.chunks, 1e3))
	b.set("lm.encode_ms_per_table", per(self("lm.encode"), split.tables, 1e6))
	b.set("lm.alloc_kb_per_table", per(time.Duration(split.encodeAlloc), split.tables, 1024))
	b.set("graph.build_us_per_table", per(self("graph.build"), split.tables, 1e3))
	b.set("graph.alloc_kb_per_table", per(time.Duration(split.graphAlloc), split.tables, 1024))
	if split.tables > 0 {
		b.set("graph.nodes_per_table", float64(split.nodes)/float64(split.tables))
		b.set("graph.edges_per_table", float64(split.edges)/float64(split.tables))
	}
	total := self("graph.build") + self("lm.encode") + self("core.union") + self("core.forward") + self("core.decode")
	if total > 0 {
		b.set("core.forward_self_share", float64(self("core.forward"))/float64(total))
		b.set("lm.encode_self_share", float64(self("lm.encode"))/float64(total))
	}
	b.info("stage self ms: graph=%.1f encode=%.1f union=%.1f forward=%.1f decode=%.1f over %d tables, %d chunks",
		ms(self("graph.build")), ms(self("lm.encode")), ms(self("core.union")), ms(self("core.forward")),
		ms(self("core.decode")), split.tables, split.chunks)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
