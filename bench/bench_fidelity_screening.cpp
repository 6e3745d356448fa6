/// bench_fidelity_screening — the multi-fidelity racing claim, measured:
/// racing-mode MLS (screen each candidate move at the conservative tier,
/// promote survivors) must walk the *identical* candidate sequence as a
/// full-fidelity run — byte-identical admitted fronts, checked here per
/// seed — while getting through evaluations several times faster where
/// screens can prove infeasibility cheaply.
///
/// Two throughput views, both at equal final front:
///   * candidates/s — evaluation operations per wall-second (the race's
///     screens and promotions each count once; the full run's evaluations
///     likewise).  This is the engine-throughput claim: how much deciding
///     the same trajectory costs per second of wall time.
///   * wall speedup — wall(full)/wall(race) for the identical walk, per
///     seed and aggregated.  Rejection-dominated walks (no feasible basin
///     found: every candidate screen-rejected) post 4-6x; basin descents
///     pay a full evaluation per accepted move either way and sit near 1x.
///
/// The sweep spans regimes where screening barely pays (loose deadlines:
/// most moves are feasible and get promoted anyway) through the
/// deadline-tight preset, where the screen window covers the whole
/// ensemble rejection budget and one truncated network proves most
/// candidates infeasible on its own.
///
/// `--json=FILE` dumps per-regime and per-seed numbers (durably: atomic
/// tmp+rename with a #crc32 trailer) — BENCH_PR9.json in the repo root is
/// a committed run at the bench defaults.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/durable_file.hpp"
#include "common/table.hpp"
#include "core/mls.hpp"
#include "core/search_criteria.hpp"
#include "experiment/bench_cli.hpp"
#include "expt/experiment.hpp"
#include "moo/core/evaluation_engine.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct SeedRow {
  std::uint64_t seed = 0;
  double wall_full_s = 0.0;
  double wall_race_s = 0.0;
  std::uint64_t walked = 0;    ///< candidates decided (identical both modes)
  std::uint64_t ops_race = 0;  ///< screens + full evaluations in race mode
  std::uint64_t accepted = 0;
  bool front_identical = false;

  /// Per-seed evaluation-operation throughput ratio: each seed pair is a
  /// complete campaign at byte-equal final front, so this is the regime's
  /// honest distribution — rejection-dominated walks post several-fold
  /// ratios, basin descents sit near 1x.
  [[nodiscard]] double rate_ratio() const {
    return (static_cast<double>(ops_race) / wall_race_s) /
           (static_cast<double>(walked) / wall_full_s);
  }
};

struct RegimeTotals {
  std::uint64_t walked = 0;       ///< candidates decided (same both modes)
  std::uint64_t full_evals = 0;   ///< race mode's full-fidelity evaluations
  std::uint64_t screened = 0;
  std::uint64_t screen_rejected = 0;
  std::uint64_t promoted = 0;
  std::uint64_t accepted = 0;
  double wall_full_s = 0.0;
  double wall_race_s = 0.0;
  std::vector<SeedRow> per_seed;
};

bool fronts_identical(const std::vector<aedbmls::moo::Solution>& a,
                      const std::vector<aedbmls::moo::Solution>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].objectives != b[i].objectives || a[i].x != b[i].x ||
        a[i].constraint_violation != b[i].constraint_violation) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aedbmls;
  const CliArgs args(argc, argv);
  expt::Scale scale = expt::resolve_scale_or_exit(args);
  // Default sweep: one regime per screening economics class — loose
  // deadlines (d100/d300), sparse multi-hop topologies, and the
  // deadline-tight preset the racing mode is built for.  An explicit
  // --scenarios/--densities flag still wins.
  if (!args.has("scenarios") && !args.has("scenario") &&
      !args.has("densities")) {
    scale.scenarios = {"d100", "d300", "sparse-wide", "deadline-tight"};
  }
  // Longer walks than the smoke default: the per-thread initialisation
  // evaluations can never be screened (best-of-retries compares exact
  // violations), so short walks understate the racing win.
  if (!args.has("evals")) scale.evals = 960;
  expt::print_header("bench_fidelity_screening",
                     "multi-fidelity racing: evaluations/s at equal front",
                     scale);

  const long seed_count = args.get_int("bench-seeds", 3);
  if (seed_count < 1) {
    std::fprintf(stderr, "--bench-seeds needs a positive count\n");
    return 2;
  }
  std::vector<std::uint64_t> seeds;
  for (long s = 1; s <= seed_count; ++s) {
    seeds.push_back(static_cast<std::uint64_t>(s));
  }

  core::MlsConfig base;
  base.populations = 1;
  base.threads_per_population = std::max<std::size_t>(1, scale.mls_threads);
  base.evaluations_per_thread =
      std::max<std::size_t>(2, scale.evals / base.threads_per_population);
  base.reset_period = base.evaluations_per_thread + 1;  // uninterrupted walk
  base.archive_capacity = 100;
  base.criteria = core::aedb_criteria();

  const moo::EvaluationEngine engine;  // pool-less: walks get a run-local pool

  TextTable table;
  table.set_header({"scenario", "walked", "full evals (race)", "screened",
                    "wall full [s]", "wall race [s]", "cand/s full",
                    "cand/s race", "cand/s ratio", "wall speedup"});

  std::ostringstream regimes_json;
  double best_ratio = 0.0;
  double best_ratio_wall_speedup = 0.0;
  std::string best_scenario;
  bool all_fronts_identical = true;

  for (const std::string& scenario : scale.scenarios) {
    const expt::ScenarioSpec spec =
        expt::ScenarioCatalog::instance().resolve(scenario);
    // Fresh problems per mode so neither run warms the other's caches;
    // the shared master seed means both see identical network ensembles.
    const aedb::AedbTuningProblem problem_full(spec.problem_config(scale));
    const aedb::AedbTuningProblem problem_race(spec.problem_config(scale));

    RegimeTotals totals;
    for (const std::uint64_t seed : seeds) {
      core::AedbMls full(base);
      const auto t_full = Clock::now();
      const moo::AlgorithmResult full_result = full.run(problem_full, seed);
      const double wall_full = seconds_since(t_full);

      core::MlsConfig race_config = base;
      race_config.screen_moves = true;
      race_config.evaluator = &engine;
      core::AedbMls race(race_config);
      const auto t_race = Clock::now();
      const moo::AlgorithmResult race_result = race.run(problem_race, seed);
      const double wall_race = seconds_since(t_race);

      const bool identical =
          fronts_identical(full_result.front, race_result.front);
      if (!identical) {
        all_fronts_identical = false;
        std::fprintf(stderr,
                     "FAIL: %s seed %llu: racing front differs from the "
                     "full-fidelity front (byte-identity contract broken)\n",
                     scenario.c_str(),
                     static_cast<unsigned long long>(seed));
      }
      // Both modes decide the same candidates; the race just proves most
      // rejections at the screen tier instead of paying a full simulation.
      totals.walked += full.stats().evaluations;
      totals.full_evals += race.stats().evaluations;
      totals.screened += race.stats().screened;
      totals.screen_rejected += race.stats().screen_rejected;
      totals.promoted += race.stats().promoted;
      totals.accepted += race.stats().accepted_moves;
      totals.wall_full_s += wall_full;
      totals.wall_race_s += wall_race;
      totals.per_seed.push_back(
          {seed, wall_full, wall_race, full.stats().evaluations,
           race.stats().screened + race.stats().evaluations,
           race.stats().accepted_moves, identical});
    }

    // Evaluation operations per wall-second: the full run performs one per
    // walked candidate; the race performs one screen per screened
    // candidate plus one full evaluation per promotion/initialisation.
    const double rate_full =
        static_cast<double>(totals.walked) / totals.wall_full_s;
    const double rate_race =
        static_cast<double>(totals.screened + totals.full_evals) /
        totals.wall_race_s;
    const double ratio = rate_race / rate_full;
    const double wall_speedup = totals.wall_full_s / totals.wall_race_s;
    if (ratio > best_ratio) {
      best_ratio = ratio;
      best_ratio_wall_speedup = wall_speedup;
      best_scenario = scenario;
    }

    table.add_row({scenario, std::to_string(totals.walked),
                   std::to_string(totals.full_evals),
                   std::to_string(totals.screened),
                   format_double(totals.wall_full_s, 2),
                   format_double(totals.wall_race_s, 2),
                   format_double(rate_full, 1), format_double(rate_race, 1),
                   format_double(ratio, 2), format_double(wall_speedup, 2)});

    std::ostringstream seeds_json;
    for (const SeedRow& row : totals.per_seed) {
      char seed_buffer[320];
      std::snprintf(seed_buffer, sizeof(seed_buffer),
                    "%s{\"seed\": %llu, \"wall_s_full\": %.4f, "
                    "\"wall_s_race\": %.4f, \"wall_speedup\": %.3f, "
                    "\"candidates_per_s_ratio\": %.3f, "
                    "\"accepted\": %llu, \"front_identical\": %s}",
                    seeds_json.tellp() == 0 ? "" : ", ",
                    static_cast<unsigned long long>(row.seed),
                    row.wall_full_s, row.wall_race_s,
                    row.wall_full_s / row.wall_race_s, row.rate_ratio(),
                    static_cast<unsigned long long>(row.accepted),
                    row.front_identical ? "true" : "false");
      seeds_json << seed_buffer;
    }

    // The per-seed array is streamed separately: a fixed buffer sized for
    // the regime fields alone cannot silently truncate at high
    // --bench-seeds counts.
    char buffer[1024];
    std::snprintf(
        buffer, sizeof(buffer),
        "%s    {\"scenario\": \"%s\", \"walked\": %llu, "
        "\"full_evaluations_race\": %llu, \"screened\": %llu, "
        "\"screen_rejected\": %llu, \"promoted\": %llu, \"accepted\": %llu, "
        "\"screen_events\": %llu, \"full_events\": %llu, "
        "\"wall_s_full\": %.4f, \"wall_s_race\": %.4f, "
        "\"candidates_per_s_full\": %.2f, \"candidates_per_s_race\": %.2f, "
        "\"candidates_per_s_ratio\": %.3f, \"wall_speedup\": %.3f,\n"
        "     \"per_seed\": [",
        regimes_json.tellp() == 0 ? "" : ",\n", scenario.c_str(),
        static_cast<unsigned long long>(totals.walked),
        static_cast<unsigned long long>(totals.full_evals),
        static_cast<unsigned long long>(totals.screened),
        static_cast<unsigned long long>(totals.screen_rejected),
        static_cast<unsigned long long>(totals.promoted),
        static_cast<unsigned long long>(totals.accepted),
        static_cast<unsigned long long>(
            problem_race.tier_counters(1).events_executed),
        static_cast<unsigned long long>(
            problem_race.tier_counters(0).events_executed),
        totals.wall_full_s, totals.wall_race_s, rate_full, rate_race, ratio,
        wall_speedup);
    regimes_json << buffer << seeds_json.str() << "]}";
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf("best regime: %s at %.2fx evaluations/s (%.2fx wall); fronts "
              "byte-identical across all regimes and seeds: %s\n",
              best_scenario.c_str(), best_ratio, best_ratio_wall_speedup,
              all_fronts_identical ? "yes" : "NO (FAIL)");

  if (args.has("json")) {
    std::ostringstream json;
    json << "{\n  \"bench\": \"bench_fidelity_screening\",\n"
         << "  \"scale\": \"" << scale.name << "\",\n"
         << "  \"networks\": " << scale.networks << ",\n"
         << "  \"threads\": " << base.threads_per_population << ",\n"
         << "  \"evaluations_per_thread\": " << base.evaluations_per_thread
         << ",\n  \"seeds\": " << seeds.size() << ",\n"
         << "  \"fronts_byte_identical\": "
         << (all_fronts_identical ? "true" : "false") << ",\n"
         << "  \"regimes\": [\n" << regimes_json.str() << "\n  ],\n"
         << "  \"headline\": {\"best_scenario\": \"" << best_scenario
         << "\", \"candidates_per_s_ratio\": "
         << format_double(best_ratio, 3)
         << ", \"wall_speedup\": " << format_double(best_ratio_wall_speedup, 3)
         << "}\n}\n";
    const std::string path = args.get("json");
    io::atomic_write_file_or_throw(path, io::with_crc_trailer(json.str()));
    std::printf("wrote %s\n", path.c_str());
  }
  return all_fronts_identical ? 0 : 2;
}
