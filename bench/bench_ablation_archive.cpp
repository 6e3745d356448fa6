/// E10 — ablation of the §IV-A archiving choice: AGA versus a
/// crowding-distance archive versus an unbounded archive, fed the identical
/// stream of candidate solutions (recorded from real optimiser runs on the
/// AEDB problem plus a uniform-random stream), then scored on the quality
/// of what each retained: hypervolume, spread, size and insert cost.

#include <chrono>
#include <cstdio>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "experiment/bench_cli.hpp"
#include "expt/experiment.hpp"
#include "moo/core/aga_archive.hpp"
#include "moo/core/crowding_archive.hpp"
#include "moo/core/front_io.hpp"
#include "moo/core/nds.hpp"
#include "moo/core/normalization.hpp"
#include "moo/core/unbounded_archive.hpp"
#include "moo/indicators/hypervolume.hpp"
#include "moo/indicators/spread.hpp"

namespace {

using namespace aedbmls;

struct ArchiveScore {
  std::string name;
  std::size_t size = 0;
  double hv = 0.0;
  double spread = 0.0;
  double insert_us = 0.0;
};

ArchiveScore feed(moo::Archive& archive, const std::string& name,
                  const std::vector<moo::Solution>& stream,
                  const moo::ObjectiveBounds& bounds,
                  const std::vector<moo::Solution>& reference_norm) {
  const auto t0 = std::chrono::steady_clock::now();
  for (const moo::Solution& s : stream) archive.try_insert(s);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ArchiveScore score;
  score.name = name;
  score.size = archive.size();
  if (!archive.contents().empty()) {
    const auto front = moo::normalize_front(archive.contents(), bounds);
    score.hv = moo::hypervolume(front, moo::unit_reference(3));
    score.spread = moo::generalized_spread(front, reference_norm);
  }
  score.insert_us = seconds * 1e6 / static_cast<double>(stream.size());
  return score;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  check_flags_or_exit(args, {expt::kScaleFlags});
  const expt::Scale scale = expt::resolve_scale_or_exit(args);
  expt::print_header("bench_ablation_archive",
                     "ablation: AGA vs crowding vs unbounded archiving (§IV-A)",
                     scale);

  const std::string& scenario = scale.scenarios.front();
  const expt::ScenarioSpec spec =
      expt::ScenarioCatalog::instance().resolve(scenario);
  const aedb::AedbTuningProblem problem(spec.problem_config(scale));

  // Candidate stream: every solution an unguided MLS run evaluates and
  // accepts would offer its archive, approximated here by merging the
  // fronts of several short runs plus uniform random evaluations — dense in
  // the interesting region, with plenty of dominated chaff.
  std::printf("[run] recording candidate stream on %s...\n",
              problem.name().c_str());
  std::vector<moo::Solution> stream;
  {
    expt::Scale mini = scale;
    mini.runs = std::max<std::size_t>(2, scale.runs / 2);
    for (const auto& record :
         expt::run_repeats("AEDB-MLS-unguided", scenario, mini)) {
      stream.insert(stream.end(), record.front.begin(), record.front.end());
    }
    Xoshiro256 rng(scale.seed);
    for (std::size_t i = 0; i < scale.evals; ++i) {
      moo::Solution s;
      s.x = problem.random_point(rng);
      problem.evaluate_into(s);
      stream.push_back(std::move(s));
    }
    // Shuffle so no archive sees a conveniently sorted prefix.
    for (std::size_t i = stream.size(); i > 1; --i) {
      std::swap(stream[i - 1], stream[rng.uniform_int(i)]);
    }
  }
  std::printf("stream: %zu candidates\n\n", stream.size());

  const auto reference = moo::non_dominated_subset(stream);
  const moo::ObjectiveBounds bounds = moo::bounds_of(reference);
  const auto reference_norm = moo::normalize_front(reference, bounds);

  // Capacity below the stream's non-dominated count so the eviction
  // policies are actually exercised at smoke scale.
  const std::size_t cap =
      std::max<std::size_t>(6, moo::non_dominated_subset(stream).size() / 2);
  moo::AgaArchive aga(cap);
  moo::CrowdingArchive crowding(cap);
  moo::UnboundedArchive unbounded;
  const ArchiveScore scores[] = {
      feed(aga, "AGA (paper)", stream, bounds, reference_norm),
      feed(crowding, "Crowding", stream, bounds, reference_norm),
      feed(unbounded, "Unbounded", stream, bounds, reference_norm),
  };

  TextTable table;
  table.set_header({"archive", "size", "hypervolume", "spread*",
                    "us/insert"});
  for (const ArchiveScore& score : scores) {
    table.add_row({score.name, std::to_string(score.size),
                   format_double(score.hv, 4), format_double(score.spread, 4),
                   format_double(score.insert_us, 2)});
  }
  std::printf("AEDB stream (bounded caps = %zu):\n%s\n", cap,
              table.to_string().c_str());

  // Second panel: a dense synthetic stream (noisy simplex, thousands of
  // mutually non-dominated points) where capacity pressure is extreme.
  {
    Xoshiro256 rng(scale.seed + 1);
    std::vector<moo::Solution> dense;
    for (int i = 0; i < 5000; ++i) {
      moo::Solution s;
      const double a = rng.uniform();
      const double b = rng.uniform() * (1.0 - a);
      s.objectives = {a, b, 1.0 - a - b + 0.02 * rng.uniform()};
      s.x = {0.0};
      s.evaluated = true;
      dense.push_back(std::move(s));
    }
    const auto dense_reference = moo::non_dominated_subset(dense);
    const moo::ObjectiveBounds dense_bounds = moo::bounds_of(dense_reference);
    const auto dense_reference_norm =
        moo::normalize_front(dense_reference, dense_bounds);

    moo::AgaArchive aga2(100);
    moo::CrowdingArchive crowding2(100);
    moo::UnboundedArchive unbounded2;
    const ArchiveScore dense_scores[] = {
        feed(aga2, "AGA (paper, cap 100)", dense, dense_bounds,
             dense_reference_norm),
        feed(crowding2, "Crowding (cap 100)", dense, dense_bounds,
             dense_reference_norm),
        feed(unbounded2, "Unbounded", dense, dense_bounds,
             dense_reference_norm),
    };
    TextTable dense_table;
    dense_table.set_header({"archive", "size", "hypervolume", "spread*",
                            "us/insert"});
    for (const ArchiveScore& score : dense_scores) {
      dense_table.add_row({score.name, std::to_string(score.size),
                           format_double(score.hv, 4),
                           format_double(score.spread, 4),
                           format_double(score.insert_us, 2)});
    }
    std::printf("synthetic dense stream (5000 near-simplex points):\n%s\n",
                dense_table.to_string().c_str());
  }

  std::printf("reading: the unbounded archive is the hv ceiling (it keeps\n"
              "everything non-dominated) but its cost/size grow without\n"
              "bound; AGA should match crowding on hv while spreading its\n"
              "members evenly and protecting extremes — the §IV-A properties\n"
              "— at a comparable per-insert cost.\n");
  return 0;
}
