#include "sim/apps/beacon_app.hpp"

namespace aedbmls::sim {

BeaconApp::BeaconApp(Simulator& simulator, Node& node, Config config,
                     CounterRng stream)
    : Application(simulator, node),
      config_(config),
      run_{.rng = stream.engine(),
           .table = NeighborTable(config.neighbor_expiry)} {}

void BeaconApp::start() {
  // Random phase in [0, period) staggers beacon slots across nodes.
  const double phase_s = run_.rng.uniform(0.0, config_.period.seconds());
  simulator().schedule_at(config_.start_at + seconds_d(phase_s),
                          [this] { send_beacon(); });
}

void BeaconApp::send_beacon() {
  Frame frame;
  frame.kind = FrameKind::kBeacon;
  frame.size_bytes = config_.beacon_bytes;
  node().device().send(frame, config_.tx_power_dbm);
  ++run_.sent;

  const double jitter_s = run_.rng.uniform(0.0, config_.jitter.seconds());
  simulator().schedule(config_.period + seconds_d(jitter_s),
                       [this] { send_beacon(); });
}

void BeaconApp::on_receive(const Frame& frame, double rx_dbm) {
  if (frame.kind != FrameKind::kBeacon) return;
  ++run_.heard;
  run_.table.update(frame.sender, rx_dbm, frame.tx_power_dbm, simulator().now());
}

}  // namespace aedbmls::sim
