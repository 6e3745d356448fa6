/// Event-order pin for the channel's PHY fan-out, per catalog regime.
///
/// Every transmission reaches dozens of receivers; the (time, sequence)
/// order in which their arrivals and signal ends run decides locks,
/// collisions, carrier sense and hence every metric above the PHY.  This
/// suite folds two views of each catalog preset into FNV-1a 64 digests:
///
///  * a raw PHY/MAC trace — a bare `sim::Network` of the preset, seeded
///    random sends over 2 s, every decoded frame plus every PHY and MAC
///    counter, with propagation delay on and off;
///  * `run_scenario` results for six seeded AEDB parameter draws — fresh,
///    pooled, and pooled with the infeasibility stop cutting runs short.
///
/// The digests were recorded with one scheduler event per arrival and per
/// signal end.  Any fan-out implementation must reproduce them bit for
/// bit; on a mismatch the test prints the row to compare.

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "aedb/aedb_params.hpp"
#include "aedb/scenario.hpp"
#include "common/rng.hpp"
#include "expt/scenario_catalog.hpp"
#include "sim/core/simulator.hpp"
#include "sim/net/network.hpp"

namespace aedbmls {
namespace {

constexpr std::uint64_t kSeed = 20130520;

class Fnv1a {
 public:
  void mix(std::uint64_t value) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void mix_double(double value) noexcept { mix(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct Pinned {
  const char* key;
  std::uint64_t trace_delay_on;
  std::uint64_t trace_delay_off;
  std::uint64_t scenarios;
};

constexpr Pinned kPinned[] = {
    {"d100", 0x7288737fbaee569eULL, 0x13d0945e1331b573ULL, 0xa42482b22e1bc7a4ULL},
    {"d200", 0x811ade986286c12aULL, 0x5b27972fbc533507ULL, 0x684bd04dff5066c0ULL},
    {"d300", 0xb2d52eef0634db32ULL, 0x1476f8a669d9acd5ULL, 0x62147cfaa09ae4e6ULL},
    {"static-grid", 0x4bd724f7b074c03aULL, 0xad6575f66f0eb60fULL, 0xbb5f0c47daad44ebULL},
    {"highspeed", 0x4a6383310e2c2a55ULL, 0x8f594c7892525a58ULL, 0x9fd7de838c459bb7ULL},
    {"sparse-wide", 0x9c89eb4153b11149ULL, 0xc9defa42ef950125ULL, 0x23a278bda1e2f16cULL},
    {"urban-canyon", 0xacce2f44070a78cbULL, 0xde0aa8062c51f492ULL, 0x59dc9511cb0d9d0fULL},
    {"mixed-speed", 0x4d7f08338ce40f31ULL, 0x41b405830be3bd4bULL, 0x440faf4c35dd93b0ULL},
    {"payload-small", 0x400670383f261cc8ULL, 0x9e3594e642fe1fa8ULL, 0x67182d07505fb9e2ULL},
    {"payload-large", 0xf668afad5e4d3477ULL, 0x5252b60f8c592b01ULL, 0x418d2cfc1d2b0759ULL},
    // Same physics as d200; only the tuning problem's deadline differs.
    {"deadline-tight", 0x811ade986286c12aULL, 0x5b27972fbc533507ULL, 0x684bd04dff5066c0ULL},
};

const Pinned* pinned_for(const std::string& key) {
  for (const Pinned& row : kPinned) {
    if (key == row.key) return &row;
  }
  return nullptr;
}

struct Send {
  sim::Time at;
  std::size_t node = 0;
  sim::Frame frame;
  double tx_dbm = 0.0;
};

/// Seeded random traffic on the preset's network (placement, mobility,
/// radio and MAC as `run_scenario` builds them, no applications): every
/// decoded frame and every PHY/MAC counter, folded into one digest.
std::uint64_t phy_trace_digest(const expt::ScenarioSpec& spec, bool delay) {
  const aedb::ScenarioConfig scenario = spec.scenario_config(kSeed, 0);
  sim::NetworkConfig config = scenario.network;
  config.model_propagation_delay = delay;
  sim::Simulator simulator;
  sim::Network network(simulator, config);

  Fnv1a digest;
  for (std::size_t i = 0; i < network.size(); ++i) {
    network.node(i).device().set_rx_callback(
        [&simulator, &digest, i](const sim::Frame& frame, double rx_dbm) {
          digest.mix(static_cast<std::uint64_t>(simulator.now().ns()));
          digest.mix(i);
          digest.mix(frame.sender);
          digest.mix(frame.sequence);
          digest.mix_double(rx_dbm);
        });
  }

  // Four sends per node over 2 s; a quarter of them start at the previous
  // send's instant, so simultaneous transmissions contend and collide.
  Xoshiro256 rng(kSeed);
  std::vector<Send> sends(4 * network.size());
  sim::Time at{};
  for (std::size_t k = 0; k < sends.size(); ++k) {
    if (k == 0 || !rng.bernoulli(0.25)) {
      at = sim::nanoseconds(rng.uniform_int(std::int64_t{0}, std::int64_t{2'000'000'000}));
    }
    Send& send = sends[k];
    send.at = at;
    send.node = rng.uniform_int(network.size());
    const bool beacon = rng.bernoulli(0.5);
    send.frame.kind = beacon ? sim::FrameKind::kBeacon : sim::FrameKind::kData;
    send.frame.size_bytes = beacon ? scenario.beacon_bytes : scenario.data_bytes;
    send.frame.origin = static_cast<NodeId>(send.node);
    send.frame.message_id = k;
    send.tx_dbm = scenario.default_tx_dbm - rng.uniform(0.0, 20.0);
  }
  for (std::size_t k = 0; k < sends.size(); ++k) {
    simulator.schedule_at(sends[k].at, [&network, &sends, k] {
      network.node(sends[k].node).device().send(sends[k].frame, sends[k].tx_dbm);
    });
  }
  simulator.run_until(sim::seconds(3));

  for (std::size_t i = 0; i < network.size(); ++i) {
    const sim::NetDevice& device = network.node(i).device();
    const sim::WirelessPhy::Counters& phy = device.phy().counters();
    digest.mix(phy.tx_frames);
    digest.mix(phy.rx_ok);
    digest.mix(phy.rx_failed_sinr);
    digest.mix(phy.rx_aborted_by_tx);
    digest.mix(phy.rx_missed_busy);
    digest.mix(phy.rx_below_sensitivity);
    const sim::CsmaBroadcastMac::Counters& mac = device.mac().counters();
    digest.mix(mac.enqueued);
    digest.mix(mac.sent);
    digest.mix(mac.dropped);
    digest.mix(mac.cca_busy);
  }
  digest.mix(simulator.executed_events());
  digest.mix(network.channel().signals_delivered());
  return digest.value();
}

void mix_result(Fnv1a& digest, const aedb::ScenarioResult& result) {
  const aedb::BroadcastStats& stats = result.stats;
  digest.mix(stats.network_size);
  digest.mix(stats.coverage);
  digest.mix(stats.forwardings);
  digest.mix_double(stats.energy_dbm_sum);
  digest.mix_double(stats.energy_mj);
  digest.mix_double(stats.broadcast_time_s);
  digest.mix(stats.collisions);
  digest.mix(stats.mac_drops);
  digest.mix(stats.drop_decisions);
  digest.mix(result.events_executed);
}

void expect_same_result(const aedb::ScenarioResult& a,
                        const aedb::ScenarioResult& b) {
  EXPECT_EQ(std::memcmp(&a.stats, &b.stats, sizeof a.stats), 0);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

/// Six seeded AEDB parameter draws on the preset: a fresh run, a pooled
/// run and a pooled run under the infeasibility stop each.  Draws
/// alternate between two networks on one workspace, so from the third
/// draw on every pooled run re-arms a context whose previous run was a
/// stopped one.
std::uint64_t scenario_digest(const expt::ScenarioSpec& spec) {
  Xoshiro256 rng(kSeed);
  aedb::ScenarioWorkspace workspace;
  Fnv1a digest;
  int cut_short = 0;
  for (std::uint64_t draw = 0; draw < 6; ++draw) {
    std::vector<double> x;
    for (const auto& [lo, hi] : aedb::AedbParams::domain()) {
      x.push_back(rng.uniform(lo, hi));
    }
    const aedb::AedbParams params = aedb::AedbParams::from_vector(x);
    aedb::ScenarioConfig config = spec.scenario_config(kSeed, draw % 2);

    const aedb::ScenarioResult fresh = aedb::run_scenario(config, params);
    const aedb::ScenarioResult pooled =
        aedb::run_scenario(config, params, workspace);
    expect_same_result(pooled, fresh);
    config.stop_when_bt_exceeds_s = 0.25;
    const aedb::ScenarioResult stopped =
        aedb::run_scenario(config, params, workspace);
    EXPECT_LE(stopped.events_executed, fresh.events_executed);
    if (stopped.events_executed < fresh.events_executed) ++cut_short;

    mix_result(digest, fresh);
    mix_result(digest, pooled);
    mix_result(digest, stopped);
  }
  EXPECT_GT(cut_short, 0) << "the infeasibility stop never fired";
  return digest.value();
}

class FanoutTrace : public ::testing::TestWithParam<std::string> {};

TEST_P(FanoutTrace, DigestsMatchPinnedEventOrder) {
  const expt::ScenarioSpec spec =
      expt::ScenarioCatalog::instance().resolve(GetParam());
  const Pinned* pinned = pinned_for(spec.key);
  ASSERT_NE(pinned, nullptr) << "no pinned digests for preset " << spec.key;

  const std::uint64_t delay_on = phy_trace_digest(spec, true);
  const std::uint64_t delay_off = phy_trace_digest(spec, false);
  const std::uint64_t scenarios = scenario_digest(spec);
  EXPECT_EQ(delay_on, pinned->trace_delay_on);
  EXPECT_EQ(delay_off, pinned->trace_delay_off);
  EXPECT_EQ(scenarios, pinned->scenarios);
  if (HasFailure()) {
    std::printf("    {\"%s\", 0x%016" PRIx64 "ULL, 0x%016" PRIx64
                "ULL, 0x%016" PRIx64 "ULL},\n",
                spec.key.c_str(), delay_on, delay_off, scenarios);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, FanoutTrace,
    ::testing::ValuesIn(expt::ScenarioCatalog::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(FanoutTrace, EveryPinnedRowIsACatalogPreset) {
  for (const Pinned& row : kPinned) {
    EXPECT_TRUE(expt::ScenarioCatalog::instance().contains(row.key)) << row.key;
  }
  EXPECT_EQ(std::size(kPinned), expt::ScenarioCatalog::instance().names().size());
}

}  // namespace
}  // namespace aedbmls
