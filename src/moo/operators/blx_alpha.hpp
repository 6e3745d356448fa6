#pragma once

/// BLX-α blend steps (after Eshelman & Schaffer 1992) on one variable.
///
/// `paper_blx_step` is the *exact* perturbation of the paper's Eq. 2, which
/// AEDB-MLS applies to the parameters chosen by a search criterion:
///     ŝp = sp + φ·[(3ρ) − 2],  φ = α·|sp − tp|,  ρ ∈ [0,1)
/// i.e. an offset uniform in [−2φ, +φ) — deliberately asymmetric (a slight
/// downward bias relative to the teammate distance).  We keep the published
/// form; the operator ablation (E9) contrasts it with `symmetric_blx_step`.

#include "common/rng.hpp"

namespace aedbmls::moo {

/// The paper's Eq. 2 on a single variable.  Result is NOT clamped.
[[nodiscard]] double paper_blx_step(double sp, double tp, double alpha,
                                    Xoshiro256& rng);

/// Symmetric variant (offset uniform in [-1.5φ, +1.5φ)), same expected
/// magnitude as Eq. 2, zero bias.  Used by the E9 operator ablation.
[[nodiscard]] double symmetric_blx_step(double sp, double tp, double alpha,
                                        Xoshiro256& rng);

}  // namespace aedbmls::moo
