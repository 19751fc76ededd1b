package alias

import "repro/internal/ir"

// IndexCache, NewIndexCache and BuildIndexCached remain only because the
// benchmark's traced run (aliasbench/cmd/aliastrace) still compiles
// against them. They cache nothing: every build compiles every function.
// They go when a benchmark change switches aliastrace to BuildIndex.
type IndexCache struct{}

// NewIndexCache returns an empty IndexCache; the bound is ignored.
func NewIndexCache(int64) *IndexCache { return &IndexCache{} }

// BuildIndexCached is BuildIndex; it reports no reused functions.
func BuildIndexCached(mg *Manager, m *ir.Module, _ *IndexCache) (*Index, int) {
	return BuildIndex(mg, m), 0
}
