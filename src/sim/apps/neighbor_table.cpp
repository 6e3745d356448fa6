#include "sim/apps/neighbor_table.hpp"

#include <algorithm>
#include <limits>

namespace aedbmls::sim {

void NeighborTable::update(NodeId id, double rx_dbm, double tx_dbm, Time now) {
  if (id >= slots_.size()) slots_.resize(id + 1);
  Slot& slot = slots_[id];
  if (slot.last_heard == kFree) ++size_;
  slot.path_loss_db = tx_dbm - rx_dbm;
  slot.last_heard = now;
}

void NeighborTable::purge(Time now) {
  for (Slot& slot : slots_) {
    if (slot.last_heard != kFree && now - slot.last_heard > expiry_) {
      slot = Slot{};
      --size_;
    }
  }
}

std::size_t NeighborTable::count_in_forwarding_area(double border_dbm,
                                                    double default_tx_dbm) const {
  std::size_t count = 0;
  for (const Slot& slot : slots_) {
    if (slot.last_heard == kFree) continue;
    const double predicted_rx = default_tx_dbm - slot.path_loss_db;
    if (predicted_rx <= border_dbm) ++count;
  }
  return count;
}

std::optional<NeighborTable::Entry> NeighborTable::closest_to_border(
    double border_dbm, double default_tx_dbm) const {
  std::optional<Entry> best;
  double best_rx = -std::numeric_limits<double>::infinity();
  for (std::size_t id = 0; id < slots_.size(); ++id) {
    if (slots_[id].last_heard == kFree) continue;
    const double predicted_rx = default_tx_dbm - slots_[id].path_loss_db;
    if (predicted_rx <= border_dbm && predicted_rx > best_rx) {
      best_rx = predicted_rx;
      best = entry(id);
    }
  }
  return best;
}

std::optional<NeighborTable::Entry> NeighborTable::furthest(
    const std::vector<NodeId>& exclude) const {
  std::optional<Entry> best;
  double best_loss = -1.0;
  for (std::size_t id = 0; id < slots_.size(); ++id) {
    if (slots_[id].last_heard == kFree) continue;
    if (std::find(exclude.begin(), exclude.end(), static_cast<NodeId>(id)) !=
        exclude.end()) {
      continue;
    }
    if (slots_[id].path_loss_db > best_loss) {
      best_loss = slots_[id].path_loss_db;
      best = entry(id);
    }
  }
  return best;
}

}  // namespace aedbmls::sim
