// Dominance-pruned single-cache assignment search (the SearchMode::kPruned
// engine behind opt::optimize_single_cache).
//
// Scheme I runs three layers, each provably argmin-preserving
// (docs/MODELING.md §10):
//  1. Per-component Pareto pre-filter: any (Vth,Tox) grid point dominated
//     in both delay and leakage by another point of the same component can
//     never appear in an optimum, because both objectives add monotonically
//     across components.
//  2. Frontier-merge composition: partial assignments are combined
//     component-by-component, keeping only the (delay, leakage) staircase
//     after each merge — the same left-fold the exhaustive DP performs, so
//     every floating-point sum is formed in the identical association.
//  3. Branch-and-bound: partial states whose minimum completion delay
//     (accumulated in DP order) already exceeds the constraint are cut, and
//     the final scan skips frontier states that cannot beat the incumbent
//     even with the minimum-leakage tail.
// Schemes II and III pre-filter their two block tables the same way and
// scan only the feasible prefix of the block-pair product.
//
// The engine reproduces the exhaustive search's grid-index tie-breaks, so
// results are byte-identical — the one theoretical exception (a strict
// per-component inequality collapsing to an exactly equal rounded sum,
// which would need sub-ULP spacing the physical models never produce) is
// documented in docs/MODELING.md and guarded by differential tests.
#pragma once

#include "opt/outcome.h"
#include "opt/schemes.h"

namespace nanocache::opt {

/// Pruned counterpart of the exhaustive search in schemes.cc.  Same
/// contract: minimize leakage subject to access_time <= delay_constraint_s,
/// infeasible outcomes carry the fastest achievable time.  The byte-identity
/// guarantee holds for any `space`: both engines build their tables and
/// results through the shared building blocks of opt/engine.h and keep the
/// same tie-breaks.
OptOutcome<SchemeResult> optimize_single_cache_pruned(
    const ComponentEvaluator& eval, const KnobGrid& grid, Scheme scheme,
    double delay_constraint_s, const OptSpace& space = OptSpace::base());

}  // namespace nanocache::opt
