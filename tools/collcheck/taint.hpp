// collcheck rank-taint engine: which variables carry rank-derived values,
// and which body tokens sit under rank-dependent control flow (including
// early-exit escalation).  The parser runs it once per function; the
// schedule pass reads it for divergence bits, the p2p rules for tag
// divergence.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_set>

#include "model.hpp"
#include "tokutil.hpp"

namespace collcheck {

// Identifiers whose value names "which rank am I" directly.
[[nodiscard]] const std::unordered_set<std::string>& rank_idents();

// Rank taint of the function body [b, e).  Variables assigned from
// rank-derived expressions are collected first (two passes pick up simple
// chains: a = comm.rank(); b = a + 1;), then the body is walked marking
// rank-conditional tokens.  A rank-conditional region that exits early
// (return, or break/continue inside a loop) makes every later statement
// of the enclosing scopes divergent too (the classic
// `if (rank != 0) return; bcast(...)` bug).
[[nodiscard]] RankTaint rank_taint(const Toks& toks, std::size_t b,
                                   std::size_t e);

// Does the token span [b, e) mention a rank source or a tainted variable?
[[nodiscard]] bool span_tainted(const Toks& toks, const RankTaint& taint,
                                std::size_t b, std::size_t e);

}  // namespace collcheck
