#include "aedb/simulation_context.hpp"

#include "common/assert.hpp"

namespace aedbmls::aedb {
namespace {

/// The beacon app's settings: with `broadcast_at`, all of a scenario that
/// acts before the broadcast besides the network.
sim::BeaconApp::Config beacon_settings(const ScenarioConfig& config) {
  sim::BeaconApp::Config beacon;
  beacon.start_at = config.beacon_start;
  beacon.period = config.beacon_period;
  beacon.jitter = config.beacon_jitter;
  beacon.beacon_bytes = config.beacon_bytes;
  beacon.tx_power_dbm = config.default_tx_dbm;
  return beacon;
}

}  // namespace

bool SimulationContext::bind_network(const sim::NetworkConfig& config) {
  if (network_.has_value() && sim::equivalent(network_->config(), config)) {
    network_->restart();
    ++stats_.rebinds;
    return false;
  }
  network_.emplace(simulator_, config);
  ++stats_.builds;
  return true;
}

void SimulationContext::configure_apps(const ScenarioConfig& config,
                                       const AedbParams& params,
                                       bool reinstall, bool start_beacons) {
  const std::size_t n = network_->size();
  data_duration_s_ =
      network_->node(0).device().phy().frame_duration(config.data_bytes).seconds();
  collector_.reset();

  const sim::BeaconApp::Config beacon_config = beacon_settings(config);
  AedbApp::Config aedb_config;
  aedb_config.params = params;
  aedb_config.default_tx_dbm = config.default_tx_dbm;
  aedb_config.data_bytes = config.data_bytes;

  // App RNG streams derive from the (seed, network) pair so runs are
  // reproducible bit-for-bit.
  const CounterRng app_stream = network_->scenario_stream().child(0xA44);

  if (reinstall) {
    beacons_.clear();
    apps_.clear();
    beacons_.reserve(n);
    apps_.reserve(n);
    collector_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      sim::Node& node = network_->node(i);
      auto& beacons =
          node.add_app<sim::BeaconApp>(beacon_config, app_stream.child(2 * i));
      auto& app = node.add_app<AedbApp>(aedb_config, beacons, collector_,
                                        app_stream.child(2 * i + 1));
      // Size the per-node statistics once per topology: the flat
      // NodeId-indexed neighbor table then never reallocates on the hot
      // path, and every later reset or restore is an allocation-free copy.
      beacons.neighbor_table().reserve(n);
      beacons_.push_back(&beacons);
      apps_.push_back(&app);

      // Energy/forwarding accounting happens at the MAC (actual airtime).
      // Installed once per graph: the lambdas capture only stable context
      // state, so the rebind hot path never reassigns a std::function.
      node.device().set_sent_callback(
          [this, id = node.id()](const sim::Frame& frame, double tx_dbm) {
            if (frame.kind == sim::FrameKind::kData) {
              collector_.record_data_tx(id, tx_dbm, data_duration_s_);
            }
          });
      node.device().mac().set_drop_callback(
          [this, id = node.id()](const sim::Frame& frame) {
            if (frame.kind == sim::FrameKind::kData) {
              collector_.record_mac_drop(id);
            }
          });
    }
  } else {
    // Re-arm the installed apps in the exact order the install path uses:
    // beacon reset + start (draws the phase, schedules the first beacon),
    // then the AEDB app — event sequence numbers and RNG draws match the
    // fresh-construction path one for one.
    for (std::size_t i = 0; i < n; ++i) {
      beacons_[i]->reset(beacon_config, app_stream.child(2 * i));
      if (start_beacons) beacons_[i]->start();
      apps_[i]->reset(aedb_config, app_stream.child(2 * i + 1));
    }
  }
}

void SimulationContext::save_warmup() {
  simulator_.save(warmup_.simulator);
  network_->save(warmup_.network);
  warmup_.beacons.resize(beacons_.size());
  for (std::size_t i = 0; i < beacons_.size(); ++i) {
    beacons_[i]->save(warmup_.beacons[i]);
  }
  warmup_.valid = true;
}

void SimulationContext::restore_warmup() {
  simulator_.restore(warmup_.simulator);
  network_->restore(warmup_.network);
  for (std::size_t i = 0; i < beacons_.size(); ++i) {
    beacons_[i]->restore(warmup_.beacons[i]);
  }
}

ScenarioResult SimulationContext::run(const ScenarioConfig& config,
                                      const AedbParams& params) {
  // Note: beacon_start may be *after* broadcast_at — a valid (if unusual)
  // configuration in which forwarders have no neighbor knowledge and fall
  // back to default-power transmissions (exercised by the test suite).
  AEDB_REQUIRE(config.end_at > config.broadcast_at, "empty broadcast window");

  simulator_.reset();
  const bool reinstall = bind_network(config.network);
  const sim::BeaconApp::Config beacon = beacon_settings(config);
  const bool restore = !reinstall && warmup_.valid &&
                       warmup_.beacon == beacon &&
                       warmup_.broadcast_at == config.broadcast_at;
  if (restore) {
    ++stats_.restores;
  } else {
    warmup_.valid = false;
    warmup_.beacon = beacon;
    warmup_.broadcast_at = config.broadcast_at;
  }
  configure_apps(config, params, reinstall, !restore);
  const std::size_t n = network_->size();

  // Source selection: fixed per (seed, network_index), so every candidate
  // configuration is judged on identical dissemination instances.
  const std::uint64_t source_index =
      config.random_source ? network_->scenario_stream().bits(0x50BCE) % n : 0;
  const MessageId message = 1;

  // On a restoring run the broadcast is the only pending event: it puts
  // back the state the capturing run had at this point, so the
  // dissemination below runs as it would after a simulated warm-up.
  const auto broadcast = [this, source_index, message, restore] {
    if (restore) {
      restore_warmup();
    } else {
      save_warmup();
    }
    collector_.begin(message, static_cast<NodeId>(source_index),
                     simulator_.now(), network_->size());
    apps_[source_index]->originate(message);
  };
  simulator_.schedule_at(config.broadcast_at, broadcast);

  collector_.arm_infeasibility_stop(
      config.stop_when_bt_exceeds_s >= 0.0 ? &simulator_ : nullptr,
      config.stop_when_bt_exceeds_s);

  simulator_.run_until(config.end_at);

  std::uint64_t collisions = 0;
  for (std::size_t i = 0; i < n; ++i) {
    collisions += network_->node(i).device().phy().counters().rx_failed_sinr;
  }

  ScenarioResult result;
  result.stats = collector_.finalize(collisions);
  result.events_executed = simulator_.executed_events();
  return result;
}

}  // namespace aedbmls::aedb
