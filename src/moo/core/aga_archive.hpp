#pragma once

/// Adaptive Grid Archiving (Knowles & Corne's PAES density estimator),
/// the archiving method of AEDB-MLS (§IV-A of the paper).
///
/// The objective space spanned by the current members is divided into
/// 2^depth divisions per objective; each member maps to a hypercube.  When a
/// non-dominated candidate arrives at a full archive, it is accepted only if
/// its hypercube is less crowded than the most crowded one, evicting a
/// member from that most crowded region.  The paper's three properties hold
/// by construction:
///  (i)   extreme solutions are never evicted (objective-wise minima are
///        protected),
///  (ii)  occupied Pareto regions keep at least one representative (a cell's
///        last member is only evicted when the candidate's cell is strictly
///        less crowded, so representation shifts toward sparse regions),
///  (iii) members spread evenly (eviction always targets the densest cell).
///
/// Deviation from the original: grid bounds are recomputed from the current
/// membership on every mutation instead of only when a point falls outside
/// the grid — simpler, deterministic, and negligible at archive sizes <= a
/// few hundred (measured in bench_micro_moo).

#include <cstdint>

#include "moo/core/archive.hpp"

namespace aedbmls::moo {

class AgaArchive final : public Archive {
 public:
  /// `capacity` > 0; `depth`: grid divisions per objective = 2^depth
  /// (PAES default depth is 4-6 for 2-3 objectives; we default to 4).
  explicit AgaArchive(std::size_t capacity, std::uint32_t depth = 4);

  bool try_insert(const Solution& candidate) override;
  [[nodiscard]] const std::vector<Solution>& contents() const override {
    return members_;
  }
  [[nodiscard]] std::size_t capacity() const override { return capacity_; }

  /// Grid cell index of an objective vector under the current grid
  /// (exposed for the property tests).
  [[nodiscard]] std::uint64_t cell_of(const std::vector<double>& objectives) const;

 private:
  void recompute_grid();
  [[nodiscard]] bool is_extreme(std::size_t member_index) const;

  std::size_t capacity_;
  std::uint32_t divisions_;
  std::vector<Solution> members_;
  // Grid state (recomputed when membership changes).
  std::vector<double> grid_lo_;
  std::vector<double> grid_hi_;
};

}  // namespace aedbmls::moo
