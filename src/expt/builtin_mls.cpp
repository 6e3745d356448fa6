/// Builtin registrations: the paper's AEDB-MLS, its E9 ablation variants
/// and the CellDE+MLS future-work hybrid (S13).

#include "core/hybrid.hpp"
#include "core/mls.hpp"
#include "core/search_criteria.hpp"
#include "expt/algorithm_registry.hpp"
#include "expt/scale.hpp"

namespace aedbmls::expt {
namespace {

core::MlsConfig mls_config_for(const Scale& scale,
                               const moo::EvaluationEngine* evaluator) {
  core::MlsConfig config;
  config.populations = scale.mls_populations;
  config.threads_per_population = scale.mls_threads;
  config.evaluations_per_thread = scale.mls_evals_per_thread();
  // Consume the full declared budget: the remainder of evals / workers goes
  // to the first workers instead of being dropped by the division.
  config.extra_evaluation_workers = scale.mls_extra_evaluation_workers();
  config.reset_period = 50;  // the paper's tuned value (§V)
  config.alpha = 0.2;        // the paper's tuned value (§V)
  config.archive_capacity = 100;
  config.criteria = core::aedb_criteria();
  // `--fidelity=race`: screen each candidate move at the problem's
  // conservative tier, promote survivors — byte-identical fronts, cheaper
  // rejections.  (Problems without a conservative tier fall back to the
  // plain loop inside AedbMls.)
  config.screen_moves = scale.fidelity == "race";
  config.evaluator = evaluator;
  return config;
}

std::unique_ptr<moo::Algorithm> make_mls(const Scale& scale,
                                         const moo::EvaluationEngine* evaluator) {
  return std::make_unique<core::AedbMls>(mls_config_for(scale, evaluator));
}

std::unique_ptr<moo::Algorithm> make_mls_sym(const Scale& scale,
                                             const moo::EvaluationEngine* evaluator) {
  core::MlsConfig config = mls_config_for(scale, evaluator);
  config.symmetric_step = true;
  return std::make_unique<core::AedbMls>(config);
}

std::unique_ptr<moo::Algorithm> make_mls_unguided(
    const Scale& scale, const moo::EvaluationEngine* evaluator) {
  core::MlsConfig config = mls_config_for(scale, evaluator);
  config.criteria = core::all_variables_criterion(5);
  return std::make_unique<core::AedbMls>(config);
}

std::unique_ptr<moo::Algorithm> make_mls_pervar(const Scale& scale,
                                                const moo::EvaluationEngine* evaluator) {
  core::MlsConfig config = mls_config_for(scale, evaluator);
  config.criteria = core::per_variable_criteria(5);
  return std::make_unique<core::AedbMls>(config);
}

std::unique_ptr<moo::Algorithm> make_hybrid(
    const Scale& scale, const moo::EvaluationEngine* evaluator) {
  core::CellDeMlsHybrid::Config config;
  config.cellde.grid_width = 5;
  config.cellde.grid_height = 4;
  config.cellde.max_evaluations = scale.evals;
  config.cellde.archive_capacity = 100;
  config.cellde.evaluator = evaluator;
  config.mls = mls_config_for(scale, evaluator);
  config.mls.evaluations_per_thread =
      std::max<std::size_t>(1, config.mls.evaluations_per_thread / 2);
  config.mls.extra_evaluation_workers = 0;  // halved budget, no remainder
  config.explore_fraction = 0.5;
  return std::make_unique<core::CellDeMlsHybrid>(config);
}

}  // namespace

namespace detail {

void register_builtin_mls_algorithms(AlgorithmRegistry& registry) {
  registry.add({"AEDB-MLS",
                "the paper's parallel multi-objective local search (§IV)",
                make_mls});
  registry.add({"AEDB-MLS-sym", "E9 ablation: zero-bias symmetric BLX step",
                make_mls_sym});
  registry.add({"AEDB-MLS-unguided",
                "E9 ablation: one all-variables criterion (no guidance)",
                make_mls_unguided});
  registry.add({"AEDB-MLS-pervar",
                "E9 ablation: per-variable criteria (guidance w/o grouping)",
                make_mls_pervar});
  registry.add({"CellDE+MLS",
                "the paper's future-work hybrid: CellDE explore, MLS exploit",
                make_hybrid});
}

}  // namespace detail
}  // namespace aedbmls::expt
