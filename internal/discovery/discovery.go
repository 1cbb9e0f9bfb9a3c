// Package discovery implements the downstream task that motivates semantic
// type detection in the paper's introduction: dataset discovery in data
// lakes. A TypeIndex maps semantic types to the tables/columns that carry
// them (as predicted by a Pythagoras model), and answers the standard
// discovery queries — find tables by type, by conjunction of types, and
// joinable/unionable candidates that share typed columns.
package discovery

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/table"
)

// ColumnRef identifies one typed column in the lake.
type ColumnRef struct {
	TableID    string
	TableName  string
	ColIndex   int
	Header     string
	Kind       table.Kind
	Type       string
	Confidence float64
}

// TypeIndex is an inverted index from semantic type to column occurrences.
// It is safe for concurrent use.
type TypeIndex struct {
	mu sync.RWMutex
	// byType maps semantic type → columns carrying it.
	byType map[string][]ColumnRef
	// byTable maps table id → that table's typed columns.
	byTable map[string][]ColumnRef
	// minConfidence filters low-confidence predictions at insert time.
	minConfidence float64
}

// NewTypeIndex returns an empty index that drops predictions below
// minConfidence (0 keeps everything).
func NewTypeIndex(minConfidence float64) *TypeIndex {
	return &TypeIndex{
		byType:        map[string][]ColumnRef{},
		byTable:       map[string][]ColumnRef{},
		minConfidence: minConfidence,
	}
}

// predRefs converts predictions for t into column refs, dropping those
// below minConfidence. The returned slice is never nil — an empty result is
// "indexed with zero qualifying columns", not "skipped".
func predRefs(t *table.Table, preds []core.ColumnPrediction, minConfidence float64) []ColumnRef {
	refs := make([]ColumnRef, 0, len(preds))
	for _, p := range preds {
		if p.Confidence < minConfidence {
			continue
		}
		refs = append(refs, ColumnRef{
			TableID: t.ID, TableName: t.Name, ColIndex: p.ColIndex,
			Header: p.Header, Kind: p.Kind, Type: p.Type, Confidence: p.Confidence,
		})
	}
	return refs
}

// MinConfidence reports the index's insert-time confidence threshold.
func (ix *TypeIndex) MinConfidence() float64 { return ix.minConfidence }

// AddPredictions indexes already-computed predictions for t, so one
// staged-inference pass covers both a serving response and the index
// update. It returns the number of columns indexed.
func (ix *TypeIndex) AddPredictions(t *table.Table, preds []core.ColumnPrediction) int {
	return ix.setRefs(t.ID, predRefs(t, preds, ix.minConfidence))
}

// setRefs installs refs as tableID's entries, replacing any previous ones.
func (ix *TypeIndex) setRefs(tableID string, refs []ColumnRef) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, dup := ix.byTable[tableID]; dup {
		// Re-adding a table replaces its previous entries.
		ix.removeLocked(tableID)
	}
	ix.byTable[tableID] = refs
	for _, r := range refs {
		ix.byType[r.Type] = append(ix.byType[r.Type], r)
	}
	return len(refs)
}

// AddLabeled indexes a table using its gold labels instead of a model —
// useful for mixed lakes where some tables are already curated.
func (ix *TypeIndex) AddLabeled(t *table.Table) int {
	refs := make([]ColumnRef, 0, len(t.Columns))
	for ci, c := range t.Columns {
		if c.SemanticType == "" {
			continue
		}
		refs = append(refs, ColumnRef{
			TableID: t.ID, TableName: t.Name, ColIndex: ci,
			Header: c.Header, Kind: c.Kind, Type: c.SemanticType, Confidence: 1,
		})
	}
	return ix.setRefs(t.ID, refs)
}

// Remove drops a table from the index.
func (ix *TypeIndex) Remove(tableID string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(tableID)
}

func (ix *TypeIndex) removeLocked(tableID string) {
	refs := ix.byTable[tableID]
	delete(ix.byTable, tableID)
	for _, r := range refs {
		cols := ix.byType[r.Type]
		kept := cols[:0]
		for _, c := range cols {
			if c.TableID != tableID {
				kept = append(kept, c)
			}
		}
		if len(kept) == 0 {
			delete(ix.byType, r.Type)
		} else {
			ix.byType[r.Type] = kept
		}
	}
}

// Stats summarizes the index.
type Stats struct {
	Tables  int
	Columns int
	Types   int
}

// Stats returns index summary counts.
func (ix *TypeIndex) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	cols := 0
	for _, refs := range ix.byTable {
		cols += len(refs)
	}
	return Stats{Tables: len(ix.byTable), Columns: cols, Types: len(ix.byType)}
}

// Columns returns all indexed occurrences of a semantic type, sorted by
// confidence descending. The tie-break is the full (TableID, ColIndex)
// identity of a column: (Confidence, TableID) alone is not a total order —
// a table can carry one type in several columns, and equal confidences
// across tables are common with curated (AddLabeled) entries — and an
// incomplete key under the unstable sort.Slice made join/union output flap
// between runs.
func (ix *TypeIndex) Columns(semanticType string) []ColumnRef {
	ix.mu.RLock()
	out := append([]ColumnRef(nil), ix.byType[semanticType]...)
	ix.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].TableID != out[j].TableID {
			return out[i].TableID < out[j].TableID
		}
		return out[i].ColIndex < out[j].ColIndex
	})
	return out
}

// TablesWithAll returns ids of tables containing a column of every queried
// type, sorted.
func (ix *TypeIndex) TablesWithAll(types ...string) []string {
	if len(types) == 0 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	count := map[string]int{}
	for _, st := range types {
		seen := map[string]bool{}
		for _, r := range ix.byType[st] {
			if !seen[r.TableID] {
				seen[r.TableID] = true
				count[r.TableID]++
			}
		}
	}
	var out []string
	for id, c := range count {
		if c == len(types) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// JoinCandidate pairs two tables through a shared semantic type — the
// join-discovery primitive. Columns are identified by position as well as
// header: headers alone are ambiguous (tables with duplicate or empty
// headers are routine in scraped lakes), so LeftColIndex/RightColIndex are
// the authoritative column identities and the headers are display labels.
type JoinCandidate struct {
	Type                        string
	LeftID, RightID             string
	LeftCol, RightCol           string
	LeftColIndex, RightColIndex int
}

// JoinCandidates returns pairs of distinct tables sharing the given
// semantic type (potential join keys), capped at limit pairs (0 = all).
func (ix *TypeIndex) JoinCandidates(semanticType string, limit int) []JoinCandidate {
	cols := ix.Columns(semanticType)
	var out []JoinCandidate
	for i := 0; i < len(cols); i++ {
		for j := i + 1; j < len(cols); j++ {
			if cols[i].TableID == cols[j].TableID {
				continue
			}
			out = append(out, JoinCandidate{
				Type:          semanticType,
				LeftID:        cols[i].TableID,
				RightID:       cols[j].TableID,
				LeftCol:       cols[i].Header,
				RightCol:      cols[j].Header,
				LeftColIndex:  cols[i].ColIndex,
				RightColIndex: cols[j].ColIndex,
			})
			if limit > 0 && len(out) >= limit {
				return out
			}
		}
	}
	return out
}

// UnionCandidate scores how unionable another table is with the query
// table: the fraction of the query's typed columns that the candidate also
// carries (SANTOS-style type-overlap unionability).
type UnionCandidate struct {
	TableID string
	Overlap float64
	Shared  int
}

// UnionCandidates ranks tables by semantic-type overlap with tableID.
//
// One RLock covers both the query table's refs and the byType scan: with
// two separate critical sections, a concurrent re-add or remove landing
// between them computed overlap against a torn mix of old and new state —
// a denominator from one index version and a numerator from another.
func (ix *TypeIndex) UnionCandidates(tableID string, topK int) ([]UnionCandidate, error) {
	ix.mu.RLock()
	base, ok := ix.byTable[tableID]
	if !ok {
		ix.mu.RUnlock()
		return nil, fmt.Errorf("discovery: table %q not indexed", tableID)
	}
	baseTypes := map[string]bool{}
	for _, r := range base {
		baseTypes[r.Type] = true
	}
	if len(baseTypes) == 0 {
		ix.mu.RUnlock()
		return nil, nil
	}

	shared := map[string]map[string]bool{}
	for st := range baseTypes {
		for _, r := range ix.byType[st] {
			if r.TableID == tableID {
				continue
			}
			if shared[r.TableID] == nil {
				shared[r.TableID] = map[string]bool{}
			}
			shared[r.TableID][st] = true
		}
	}
	ix.mu.RUnlock()

	out := make([]UnionCandidate, 0, len(shared))
	for id, types := range shared {
		out = append(out, UnionCandidate{
			TableID: id,
			Shared:  len(types),
			Overlap: float64(len(types)) / float64(len(baseTypes)),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Overlap != out[j].Overlap {
			return out[i].Overlap > out[j].Overlap
		}
		return out[i].TableID < out[j].TableID
	})
	if topK > 0 && len(out) > topK {
		out = out[:topK]
	}
	return out, nil
}

// CanonicalDump renders the whole index in a deterministic byte form: one
// tab-separated line per indexed column, tables in sorted-ID order, each
// table's columns in position order, confidences in hex float (lossless
// round-trip). Two indexes over the same lake are semantically equal iff
// their dumps are byte-equal — the oracle the rescore crash-resume
// bit-identity tests compare.
func (ix *TypeIndex) CanonicalDump() []byte {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ids := make([]string, 0, len(ix.byTable))
	for id := range ix.byTable {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b bytes.Buffer
	for _, id := range ids {
		refs := append([]ColumnRef(nil), ix.byTable[id]...)
		sort.Slice(refs, func(i, j int) bool { return refs[i].ColIndex < refs[j].ColIndex })
		for _, r := range refs {
			fmt.Fprintf(&b, "%s\t%d\t%s\t%s\t%s\t%s\n",
				r.TableID, r.ColIndex, r.Header, r.Kind, r.Type,
				strconv.FormatFloat(r.Confidence, 'x', -1, 64))
		}
	}
	return b.Bytes()
}

// Types returns all indexed semantic types, sorted.
func (ix *TypeIndex) Types() []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]string, 0, len(ix.byType))
	for st := range ix.byType {
		out = append(out, st)
	}
	sort.Strings(out)
	return out
}
