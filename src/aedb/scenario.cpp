#include "aedb/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "aedb/simulation_context.hpp"
#include "common/assert.hpp"
#include "sim/mobility/placement.hpp"

namespace aedbmls::aedb {

ScenarioWorkspace::ScenarioWorkspace() = default;
ScenarioWorkspace::~ScenarioWorkspace() = default;

ScenarioWorkspace::TopologyKey ScenarioWorkspace::TopologyKey::of(
    const sim::NetworkConfig& net) noexcept {
  return TopologyKey{net.seed, net.network_index, net.node_count,
                     net.area_width, net.area_height};
}

const std::vector<sim::Vec2>& ScenarioWorkspace::positions_for(
    const sim::NetworkConfig& net) {
  const TopologyKey key = TopologyKey::of(net);
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if (it->key == key) {
      ++stats_.hits;
      // Move-to-front keeps the repeated-lookup pattern O(1) and makes the
      // back of the vector the LRU eviction victim.
      std::rotate(cache_.begin(), it, it + 1);
      return cache_.front().positions;
    }
  }
  ++stats_.misses;
  if (cache_.size() >= kCapacity) cache_.pop_back();
  Topology t;
  t.key = key;
  // Exactly the draw Network's constructor would make (same stream id).
  const CounterRng network_stream(net.seed, {net.network_index});
  t.positions = sim::uniform_positions(network_stream.child(0x905e0bULL),
                                       net.node_count, net.area_width,
                                       net.area_height);
  cache_.push_back(std::move(t));
  std::rotate(cache_.begin(), cache_.end() - 1, cache_.end());
  return cache_.front().positions;
}

SimulationContext& ScenarioWorkspace::context_for(const sim::NetworkConfig& net) {
  const TopologyKey key = TopologyKey::of(net);
  for (auto it = contexts_.begin(); it != contexts_.end(); ++it) {
    if (it->key == key) {
      ++stats_.context_hits;
      std::rotate(contexts_.begin(), it, it + 1);
      return *contexts_.front().context;
    }
  }
  ++stats_.context_misses;
  if (contexts_.size() >= kContextCapacity) contexts_.pop_back();
  contexts_.push_back(
      PooledContext{key, std::make_unique<SimulationContext>()});
  std::rotate(contexts_.begin(), contexts_.end() - 1, contexts_.end());
  return *contexts_.front().context;
}

std::size_t nodes_for_density(int devices_per_km2, double area_width,
                              double area_height) {
  const double area_km2 = (area_width / 1000.0) * (area_height / 1000.0);
  const double nodes = static_cast<double>(devices_per_km2) * area_km2;
  return static_cast<std::size_t>(std::llround(nodes));
}

ScenarioConfig make_paper_scenario(int devices_per_km2, std::uint64_t seed,
                                   std::uint64_t network_index) {
  ScenarioConfig config;
  config.network.node_count = nodes_for_density(devices_per_km2);
  config.network.seed = seed;
  config.network.network_index = network_index;
  return config;
}

ScenarioResult run_scenario(const ScenarioConfig& config,
                            const AedbParams& params) {
  // No workspace: a throwaway context runs the fresh-construction path —
  // the identical code a pooled context executes on first use.
  SimulationContext context;
  return context.run(config, params);
}

ScenarioResult run_scenario(const ScenarioConfig& config,
                            const AedbParams& params,
                            ScenarioWorkspace& workspace) {
  return workspace.context_for(config.network).run(config, params, workspace);
}

}  // namespace aedbmls::aedb
