#pragma once

/// \file bounds.hpp
/// Lower bounds on OPT(I) = min Σ w_i C_i used throughout the paper:
///
/// * Squashed area A(I) (Definition 5): the optimum of the relaxation that
///   ignores the width caps (δ_i = P), i.e. weighted single-machine
///   scheduling solved by Smith's rule on the "squashed" machine.
/// * Height bound H(I) (Definition 6): Σ w_i · V_i/δ_i, the optimum when
///   P = ∞ (every task runs fully parallel from time 0).
/// * Mixed bound (Lemma 1): for any split V_i = V¹_i + V²_i,
///   OPT(I) ≥ A(I[V¹]) + H(I[V²]).  WDEQ's analysis instantiates the split
///   with the limited/full volumes of the run.

#include <span>

#include "malsched/core/instance.hpp"

namespace malsched::core {

/// A(I): sort by V_i/w_i non-decreasing; A = Σ_i (Σ_{j>=i} w_j) · V_i / P.
[[nodiscard]] double squashed_area_bound(const Instance& instance);

/// H(I) = Σ_i w_i · V_i / min(δ_i, P).
[[nodiscard]] double height_bound(const Instance& instance);

/// Lemma 1 with the given first-part volumes: A(I[v1]) + H(I[V - v1]).
/// Each v1[i] must lie in [0, V_i].
[[nodiscard]] double mixed_lower_bound(const Instance& instance,
                                       std::span<const double> v1);

/// max(A(I), H(I)) — the generic certificate used when no schedule-specific
/// split is available.
[[nodiscard]] double best_simple_lower_bound(const Instance& instance);

}  // namespace malsched::core
