#pragma once

/// One-hop neighbor table fed by beacon receptions.
///
/// AEDB is a cross-layer protocol: for every neighbor the table records the
/// link's path-loss estimate (beacon tx power − rx power).  Assuming link
/// symmetry — the paper's assumption too — "the power at which neighbor j
/// hears me when I transmit at P" is `P − path_loss(j)`, which is
/// everything AEDB's forwarding-area and power-adaptation logic needs.
///
/// Storage is a flat NodeId-indexed slot array (node ids are dense, starting
/// at zero) of 16-byte slots — the path loss and when it was heard; the slot
/// index is the neighbor's id and a sentinel time marks a free slot.
/// Updates are O(1), the selection helpers walk the slots in NodeId order —
/// deterministic by construction, independent of insertion history — and
/// copying a table into one that has the capacity (a pooled context's
/// per-run reset, or a warm-up snapshot) performs no heap allocation.

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "sim/core/time.hpp"

namespace aedbmls::sim {

class NeighborTable {
 public:
  /// A neighbor, as the lookups report it.
  struct Entry {
    NodeId id = kInvalidNode;
    double path_loss_db = 0.0;  ///< beacon tx power − rx power
    Time last_heard{};
  };

  /// `expiry`: entries older than this are dropped by purge().
  explicit NeighborTable(Time expiry = aedbmls::sim::seconds_d(2.5)) noexcept
      : expiry_(expiry) {}

  /// Reserves storage for node ids [0, capacity).  Pooled contexts size
  /// the table once per topology so steady-state updates never allocate.
  void reserve(std::size_t capacity) { slots_.reserve(capacity); }

  /// Records a beacon from `id` heard at `rx_dbm` (sent at `tx_dbm`).
  void update(NodeId id, double rx_dbm, double tx_dbm, Time now);

  /// Drops entries not refreshed within the expiry window.
  void purge(Time now);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Neighbors in *my* forwarding area: those that would receive my
  /// default-power transmission at or below `border_dbm` — under symmetry,
  /// exactly those whose beacons (sent at the same default power) arrived
  /// at or below `border_dbm`.
  [[nodiscard]] std::size_t count_in_forwarding_area(double border_dbm,
                                                     double default_tx_dbm) const;

  /// Among forwarding-area neighbors, the one whose predicted rx power is
  /// *closest to the border from below* (AEDB's "new furthest neighbor" in
  /// dense mode, Fig. 1 line 20).  nullopt when the area is empty.  Ties
  /// resolve to the lowest NodeId.
  [[nodiscard]] std::optional<Entry> closest_to_border(double border_dbm,
                                                       double default_tx_dbm) const;

  /// The neighbor with the largest path loss (the furthest one),
  /// optionally ignoring ids in `exclude`.  nullopt when empty.  Ties
  /// resolve to the lowest NodeId.
  [[nodiscard]] std::optional<Entry> furthest(
      const std::vector<NodeId>& exclude = {}) const;

 private:
  /// Marks a free slot (no neighbor is heard before the epoch).
  static constexpr Time kFree =
      Time::from_ns(std::numeric_limits<std::int64_t>::min());

  struct Slot {
    double path_loss_db = 0.0;
    Time last_heard = kFree;
  };

  [[nodiscard]] Entry entry(std::size_t id) const {
    return Entry{static_cast<NodeId>(id), slots_[id].path_loss_db,
                 slots_[id].last_heard};
  }

  Time expiry_;
  std::vector<Slot> slots_;  ///< NodeId-indexed
  std::size_t size_ = 0;     ///< occupied slots
};

}  // namespace aedbmls::sim
