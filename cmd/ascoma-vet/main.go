// Command ascoma-vet is the repository's analyzer suite: repo-specific
// static checks that protect the properties the simulator's results rest on.
//
// Per-package analyzers (run under the go vet protocol):
//
//	nondet          no wall-clock, global math/rand, or map iteration in
//	                the deterministic packages (golden-checksum safety)
//	statsintegrity  every stats field reaches both the finalize step and
//	                the golden-checksum serialization
//	ctxflow         exported Run* entry points accept and propagate
//	                context.Context (the cancellation contract)
//	errdrop         no statement calls that silently discard an error
//	                result (the PR 2 CSV-write bug class)
//
// Whole-program analyzers (run once over the module, on the
// interprocedural call graph built by internal/analysis/program):
//
//	parownership    the parallel core's worker/commit goroutine state
//	                split, proved over the transitive worker call closure
//	hotpathflow     no heap-allocating constructs in //ascoma:hotpath
//	                functions or anything they transitively call (the
//	                zero-alloc event path)
//	dirlint         //ascoma: directives audited: known names only, a
//	                reason on every escape hatch
//
// Run it standalone, which is what make vet and CI do (the whole-program
// analyzers run first, then go vet drives the per-package ones):
//
//	go build -o .bin/ascoma-vet ./cmd/ascoma-vet
//	.bin/ascoma-vet ./...
//
// See DESIGN.md §9 and §14 for each analyzer's rules, annotations, and
// escape hatches.
package main

import (
	"ascoma/internal/analysis"
	"ascoma/internal/analysis/ctxflow"
	"ascoma/internal/analysis/dirlint"
	"ascoma/internal/analysis/errdrop"
	"ascoma/internal/analysis/hotpathflow"
	"ascoma/internal/analysis/nondet"
	"ascoma/internal/analysis/parownership"
	"ascoma/internal/analysis/program"
	"ascoma/internal/analysis/statsintegrity"
	"ascoma/internal/analysis/unit"
)

func main() {
	unit.Main(
		[]*analysis.Analyzer{
			nondet.Analyzer,
			statsintegrity.Analyzer,
			ctxflow.Analyzer,
			errdrop.Analyzer,
		},
		[]*program.Analyzer{
			parownership.Analyzer,
			hotpathflow.Analyzer,
			dirlint.Analyzer,
		},
	)
}
