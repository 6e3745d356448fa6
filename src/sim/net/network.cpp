#include "sim/net/network.hpp"

#include "common/assert.hpp"
#include "sim/mobility/placement.hpp"

namespace aedbmls::sim {
namespace {

std::unique_ptr<MobilityModel> make_mobility(const NetworkConfig& config,
                                             Vec2 position,
                                             CounterRng stream) {
  const double width = config.area_width;
  const double height = config.area_height;
  switch (config.mobility) {
    case MobilityKind::kStatic:
      return std::make_unique<ConstantPositionMobility>(position);
    case MobilityKind::kRandomWalk:
      return std::make_unique<RandomWalkMobility>(
          RandomWalkMobility::Config{.width = width,
                                     .height = height,
                                     .min_speed = config.min_speed,
                                     .max_speed = config.max_speed,
                                     .epoch = config.mobility_epoch},
          position, stream);
    case MobilityKind::kRandomWaypoint: {
      // Waypoint travel requires strictly positive speed.
      const double min_speed = std::max(config.min_speed, 0.1);
      return std::make_unique<RandomWaypointMobility>(
          RandomWaypointMobility::Config{
              .width = width,
              .height = height,
              .min_speed = min_speed,
              .max_speed = std::max(config.max_speed, min_speed)},
          position, stream);
    }
    case MobilityKind::kGaussMarkov:
      return std::make_unique<GaussMarkovMobility>(
          GaussMarkovMobility::Config{
              .width = width,
              .height = height,
              .mean_speed = 0.5 * (config.min_speed + config.max_speed),
              .sigma_speed = 0.25 * (config.max_speed - config.min_speed)},
          position, stream);
  }
  AEDB_UNREACHABLE("unknown mobility kind");
}

}  // namespace

bool equivalent(const NetworkConfig& a, const NetworkConfig& b) noexcept {
  // The fields that tell a problem's fixed networks apart come first.
  return a.network_index == b.network_index && a.seed == b.seed &&
         a.node_count == b.node_count && a.area_width == b.area_width &&
         a.area_height == b.area_height && a.min_speed == b.min_speed &&
         a.max_speed == b.max_speed && a.mobility_epoch == b.mobility_epoch &&
         a.mobility == b.mobility && a.propagation == b.propagation &&
         a.shadowing_sigma_db == b.shadowing_sigma_db &&
         a.shadowing_correlation_m == b.shadowing_correlation_m &&
         a.model_propagation_delay == b.model_propagation_delay &&
         a.phy == b.phy && a.mac == b.mac;
}

Network::Network(Simulator& simulator, const NetworkConfig& config)
    : simulator_(simulator),
      config_(config),
      base_propagation_(
          std::make_unique<LogDistancePropagation>(config.propagation)) {
  AEDB_REQUIRE(config_.node_count >= 2, "network needs at least two nodes");
  const PropagationModel* propagation = base_propagation_.get();
  if (config_.shadowing_sigma_db > 0.0) {
    ShadowedPropagation::Config shadow;
    shadow.sigma_db = config_.shadowing_sigma_db;
    shadow.correlation_distance = config_.shadowing_correlation_m;
    shadow.seed = hash_combine(config_.seed, config_.network_index);
    shadowing_ =
        std::make_unique<ShadowedPropagation>(*base_propagation_, shadow);
    propagation = shadowing_.get();
  }
  channel_ = std::make_unique<WirelessChannel>(
      simulator_, *propagation, config_.model_propagation_delay);

  // Placement and per-node mobility derive from (seed, network_index) only.
  const CounterRng network_stream(config_.seed, {config_.network_index});
  const std::vector<Vec2> positions =
      uniform_positions(network_stream.child(0x905e0bULL), config_.node_count,
                        config_.area_width, config_.area_height);
  nodes_.reserve(config_.node_count);
  for (std::size_t i = 0; i < config_.node_count; ++i) {
    const auto id = static_cast<NodeId>(i);
    auto node = std::make_unique<Node>(
        simulator_, id,
        make_mobility(config_, positions[i], network_stream.child(1000 + i)));
    auto device = std::make_unique<NetDevice>(
        simulator_, id, config_.phy, config_.mac,
        network_stream.child(2000 + i).key());
    channel_->attach(&device->phy(), &node->mobility());
    node->attach_device(std::move(device));
    nodes_.push_back(std::move(node));
  }
}

void Network::restart() {
  channel_->reset();
  const CounterRng network_stream(config_.seed, {config_.network_index});
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->device().reset(network_stream.child(2000 + i).key());
  }
}

void Network::save(RunState& into) const {
  channel_->save(into.channel);
  into.phys.resize(nodes_.size());
  into.macs.resize(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->device().phy().save(into.phys[i]);
    nodes_[i]->device().mac().save(into.macs[i]);
  }
}

void Network::restore(const RunState& from) {
  AEDB_REQUIRE(from.phys.size() == nodes_.size(),
               "restoring another network's state");
  channel_->restore(from.channel);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->device().phy().restore(from.phys[i]);
    nodes_[i]->device().mac().restore(from.macs[i]);
  }
}

}  // namespace aedbmls::sim
