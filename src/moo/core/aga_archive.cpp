#include "moo/core/aga_archive.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/assert.hpp"
#include "moo/core/dominance.hpp"

namespace aedbmls::moo {

// Archive::sample lives here (archive.hpp is header-only otherwise).
std::vector<Solution> Archive::sample(std::size_t count, Xoshiro256& rng) const {
  const auto& members = contents();
  AEDB_REQUIRE(!members.empty(), "sampling from empty archive");
  std::vector<Solution> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(members[rng.uniform_int(members.size())]);
  }
  return out;
}

AgaArchive::AgaArchive(std::size_t capacity, std::uint32_t depth)
    : capacity_(capacity), divisions_(1u << depth) {
  AEDB_REQUIRE(capacity_ > 0, "AGA archive needs capacity > 0");
  AEDB_REQUIRE(depth >= 1 && depth <= 16, "grid depth out of range");
  members_.reserve(capacity_ + 1);
}

void AgaArchive::recompute_grid() {
  if (members_.empty()) {
    grid_lo_.clear();
    grid_hi_.clear();
    return;
  }
  const std::size_t m = members_.front().objectives.size();
  grid_lo_.assign(m, 0.0);
  grid_hi_.assign(m, 0.0);
  for (std::size_t obj = 0; obj < m; ++obj) {
    double lo = members_.front().objectives[obj];
    double hi = lo;
    for (const Solution& s : members_) {
      lo = std::min(lo, s.objectives[obj]);
      hi = std::max(hi, s.objectives[obj]);
    }
    // Pad so boundary points land strictly inside the grid.
    const double span = std::max(hi - lo, 1e-12);
    grid_lo_[obj] = lo - 0.05 * span;
    grid_hi_[obj] = hi + 0.05 * span;
  }
}

std::uint64_t AgaArchive::cell_of(const std::vector<double>& objectives) const {
  AEDB_REQUIRE(!grid_lo_.empty(), "grid queried before first insert");
  std::uint64_t cell = 0;
  for (std::size_t obj = 0; obj < objectives.size(); ++obj) {
    const double span = grid_hi_[obj] - grid_lo_[obj];
    double frac = (objectives[obj] - grid_lo_[obj]) / span;
    frac = std::clamp(frac, 0.0, 1.0);
    auto idx = static_cast<std::uint64_t>(frac * divisions_);
    if (idx >= divisions_) idx = divisions_ - 1;
    cell = cell * divisions_ + idx;
  }
  return cell;
}

bool AgaArchive::is_extreme(std::size_t member_index) const {
  // A member attaining the minimum of any objective is an extreme of the
  // current front and must survive eviction (property i).
  const std::size_t m = members_.front().objectives.size();
  for (std::size_t obj = 0; obj < m; ++obj) {
    double lo = members_.front().objectives[obj];
    for (const Solution& s : members_) lo = std::min(lo, s.objectives[obj]);
    if (members_[member_index].objectives[obj] <= lo) return true;
  }
  return false;
}

bool AgaArchive::try_insert(const Solution& candidate) {
  AEDB_REQUIRE(candidate.evaluated, "inserting unevaluated solution");

  // Reject if dominated by or identical to a member; drop dominated members.
  for (const Solution& member : members_) {
    const Dominance d = compare(member, candidate);
    if (d == Dominance::kFirst) return false;
    if (d == Dominance::kNone && member.objectives == candidate.objectives &&
        member.constraint_violation == candidate.constraint_violation) {
      return false;  // duplicate in objective space
    }
  }
  std::erase_if(members_,
                [&](const Solution& member) { return dominates(candidate, member); });

  if (members_.size() < capacity_) {
    members_.push_back(candidate);
    recompute_grid();
    return true;
  }

  // Archive full: adaptive-grid replacement.
  members_.push_back(candidate);  // tentatively, to grid over the union
  recompute_grid();
  const std::size_t candidate_index = members_.size() - 1;
  const std::uint64_t candidate_cell = cell_of(candidate.objectives);

  // std::map, not a hash map: archive contents reach the admitted fronts
  // (and so the campaign CSVs), and the project-wide determinism contract
  // keeps hash/pointer iteration order out of anything that can touch
  // output bytes (docs/DETERMINISM.md).  At archive capacities (~100) the
  // tree map is not measurable on any profile.
  std::map<std::uint64_t, std::size_t> counts;
  for (const Solution& s : members_) ++counts[cell_of(s.objectives)];

  // Most crowded cell(s); the candidate is only accepted if its region is
  // strictly less crowded than the worst.
  std::size_t max_count = 0;
  for (const auto& [cell, count] : counts) max_count = std::max(max_count, count);

  if (counts[candidate_cell] >= max_count) {
    members_.pop_back();  // candidate lives in the most crowded region
    recompute_grid();
    return false;
  }

  // Evict a non-extreme member from a most crowded cell.  Deterministic
  // choice: the first eligible member in insertion order.
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (i == candidate_index) continue;
    if (counts[cell_of(members_[i].objectives)] != max_count) continue;
    if (is_extreme(i)) continue;
    members_.erase(members_.begin() + static_cast<std::ptrdiff_t>(i));
    recompute_grid();
    return true;
  }
  // Every member of the crowded cells is an extreme (degenerate, tiny
  // archives): fall back to evicting from the candidate's own acceptance —
  // i.e. reject the candidate to preserve the extremes.
  members_.pop_back();
  recompute_grid();
  return false;
}

}  // namespace aedbmls::moo
