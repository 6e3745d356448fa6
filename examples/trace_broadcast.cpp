/// Trace one AEDB dissemination step by step: who received when, who
/// forwarded at what power, who dropped and why.  Useful for understanding
/// the protocol's border/density adaptation on a concrete topology.
///
///   ./trace_broadcast [--nodes=12] [--seed=5] [--border=-86] [--area=250]
///                     [--static]
///
/// Any other argument, or a malformed operand, exits 2.

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "aedb/aedb_app.hpp"
#include "aedb/broadcast_stats.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "sim/net/network.hpp"

int main(int argc, char** argv) try {
  using namespace aedbmls;
  const CliArgs args(argc, argv);
  constexpr std::string_view kFlags[] = {"nodes", "seed", "area", "border",
                                         "static"};
  check_flags_or_exit(args, {kFlags});

  sim::NetworkConfig network_config;
  network_config.node_count = static_cast<std::size_t>(args.get_int("nodes", 12));
  network_config.seed = static_cast<std::uint64_t>(args.get_int("seed", 5));
  if (args.has("static")) network_config.mobility = sim::MobilityKind::kStatic;
  // A compact arena so a dozen nodes form a connected multi-hop topology
  // (decode range is ~140 m at default power).
  network_config.area_width = args.get_double("area", 250.0);
  network_config.area_height = network_config.area_width;

  aedb::AedbParams params;
  params.min_delay_s = 0.05;
  params.max_delay_s = 0.5;
  params.border_threshold_dbm = args.get_double("border", -86.0);
  params.margin_threshold_db = 1.0;
  params.neighbors_threshold = 8.0;

  sim::Simulator simulator;
  sim::Network network(simulator, network_config);
  aedb::BroadcastStatsCollector collector;

  const sim::Time beacon_start = sim::seconds(1);
  const sim::Time broadcast_at = sim::seconds(4);
  const sim::Time end_at = sim::seconds(10);

  std::vector<aedb::AedbApp*> apps;
  std::vector<double> forward_power(network.size(), 0.0);
  std::vector<double> forward_time(network.size(), -1.0);
  for (std::size_t i = 0; i < network.size(); ++i) {
    sim::Node& node = network.node(i);
    sim::BeaconApp::Config beacon_config;
    beacon_config.start_at = beacon_start;
    auto& beacons =
        node.add_app<sim::BeaconApp>(beacon_config, CounterRng(700 + i));
    aedb::AedbApp::Config app_config;
    app_config.params = params;
    apps.push_back(&node.add_app<aedb::AedbApp>(app_config, beacons, collector,
                                                CounterRng(800 + i)));
    const double duration_s =
        node.device().phy().frame_duration(app_config.data_bytes).seconds();
    node.device().set_sent_callback(
        [&, i, duration_s](const sim::Frame& frame, double tx_dbm) {
          if (frame.kind == sim::FrameKind::kData) {
            forward_power[i] = tx_dbm;
            forward_time[i] = simulator.now().seconds();
            collector.record_data_tx(static_cast<NodeId>(i), tx_dbm, duration_s);
          }
        });
  }

  const NodeId source = 0;
  simulator.schedule_at(broadcast_at, [&] {
    collector.begin(1, source, simulator.now(), network.size());
    apps[source]->originate(1);
  });
  simulator.run_until(end_at);

  std::printf("AEDB broadcast trace — %zu nodes, border %.1f dBm, source %u\n\n",
              network.size(), params.border_threshold_dbm, source);

  TextTable table;
  table.set_header({"node", "pos@t0 (x,y)", "first rx [s]", "decision",
                    "fwd tx [dBm]", "fwd at [s]"});
  for (std::size_t i = 0; i < network.size(); ++i) {
    const sim::Vec2 pos = network.node(i).position(broadcast_at);
    const auto first_rx = collector.first_rx_time(static_cast<NodeId>(i));
    std::string rx = "-";
    if (first_rx.has_value()) rx = format_double(first_rx->seconds(), 4);

    std::string decision;
    const auto& counters = apps[i]->counters();
    if (i == source) decision = "source";
    else if (counters.forwards > 0) {
      decision = counters.dense_mode_forwards > 0 ? "forward (dense)"
                                                  : "forward (sparse)";
    } else if (counters.drops_on_arrival > 0) decision = "drop: inside border";
    else if (counters.drops_after_wait > 0) decision = "drop: heard stronger";
    else if (!first_rx.has_value()) decision = "never reached";
    else decision = "waiting cut off";

    table.add_row({std::to_string(i),
                   "(" + format_double(pos.x, 0) + "," + format_double(pos.y, 0) + ")",
                   rx, decision,
                   forward_time[i] >= 0.0 ? format_double(forward_power[i], 2) : "-",
                   forward_time[i] >= 0.0 ? format_double(forward_time[i], 4) : "-"});
  }
  std::printf("%s\n", table.to_string().c_str());

  const aedb::BroadcastStats stats = collector.finalize(0);
  std::printf("coverage %zu/%zu, forwardings %zu, energy %.2f dBm-sum, "
              "bt %.3f s\n",
              stats.coverage, stats.network_size - 1, stats.forwardings,
              stats.energy_dbm_sum, stats.broadcast_time_s);
  return 0;
} catch (const std::invalid_argument& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 2;
}
