#include "aedb/scenario.hpp"

#include <algorithm>
#include <cmath>

#include "aedb/simulation_context.hpp"

namespace aedbmls::aedb {

ScenarioWorkspace::ScenarioWorkspace() = default;
ScenarioWorkspace::~ScenarioWorkspace() = default;

SimulationContext& ScenarioWorkspace::context_for(const sim::NetworkConfig& net) {
  for (auto it = contexts_.begin(); it != contexts_.end(); ++it) {
    if (sim::equivalent(it->network, net)) {
      ++stats_.context_hits;
      // Move-to-front keeps the repeated-lookup pattern O(1) and makes the
      // back of the vector the LRU eviction victim.
      std::rotate(contexts_.begin(), it, it + 1);
      return *contexts_.front().context;
    }
  }
  ++stats_.context_misses;
  if (contexts_.size() >= kContextCapacity) contexts_.pop_back();
  contexts_.push_back(PooledContext{net, std::make_unique<SimulationContext>()});
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
  return workspace.context_for(config.network).run(config, params);
}

}  // namespace aedbmls::aedb
