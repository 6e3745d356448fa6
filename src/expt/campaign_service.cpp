#include "expt/campaign_service.hpp"

#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/fault.hpp"
#include "common/logging.hpp"
#include "expt/manifest.hpp"

namespace aedbmls::expt {
namespace {

std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%llx",
                static_cast<unsigned long long>(fingerprint));
  return buffer;
}

std::size_t parse_index(const std::string& token, const char* what) {
  if (const auto value = parse_u64(token)) return *value;
  throw std::runtime_error(std::string("elastic: bad ") + what + " '" + token +
                           "'");
}

}  // namespace

ExperimentResult run_campaign_coordinator(
    const ExperimentPlan& plan, par::net::Transport& transport,
    const CampaignCoordinatorOptions& options) {
  if (transport.rank() != 0) {
    throw std::logic_error("run_campaign_coordinator needs rank 0");
  }
  validate_plan(plan);
  const auto cells = plan.cells();
  const std::string fp_hex = fingerprint_hex(plan.fingerprint());
  const std::size_t expected_workers = transport.world_size() - 1;
  const ExperimentDriver::Options& driver = options.driver;

  std::vector<RunRecord> records(cells.size());
  std::vector<bool> cell_done(cells.size(), false);
  std::set<std::size_t> pending;
  std::size_t done_count = 0;

  // Online per-scenario cost model (mean observed wall seconds, replayed
  // cells included).  Scheduling only — never touches result bytes.
  std::map<std::string, telemetry::GaugeStat> observed_cost;
  auto observe_cost = [&](const RunRecord& record) {
    observed_cost[record.scenario].observe(record.wall_seconds);
  };
  auto expected_cost = [&](const ExperimentPlan::Cell& cell) {
    const auto seen = observed_cost.find(cell.scenario);
    if (seen != observed_cost.end() && seen->second.count > 0) {
      return seen->second.mean();
    }
    // Unknown cost schedules first: the sooner it is observed, the better
    // every later decision gets.
    return std::numeric_limits<double>::infinity();
  };

  // The campaign store doubles as the crash-resume journal: replay its
  // valid prefix (repairing a damaged file), then append every completed
  // cell.  A store holding every cell answers each worker's handshake with
  // `done`.
  std::optional<CampaignStore> store;
  if (driver.use_cache) {
    store.emplace(driver.cache_dir, plan);
    for (CellResult& prior : store->replayed()) {
      cell_done[prior.index] = true;
      ++done_count;
      observe_cost(prior.record);
      if (driver.progress) driver.progress->cell_done(prior.record.telemetry);
      records[prior.index] = std::move(prior.record);
    }
    if (done_count > 0) {
      log_info("elastic: store replayed ", done_count, " of ", cells.size(),
               " cells");
    }
  }
  const bool from_cache = done_count == cells.size();

  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!cell_done[i]) pending.insert(i);
  }
  auto complete = [&]() { return done_count == cells.size(); };
  if (expected_workers == 0 && !complete()) {
    throw std::runtime_error(
        "elastic campaign needs at least one worker (world size 1, " +
        std::to_string(pending.size()) + " cells to run)");
  }

  // Per-worker scheduler state.  A worker is resolved once it was sent
  // `done` or departed; the campaign ends when every expected worker is
  // resolved and every cell is done.
  enum class WorkerState { kUnknown, kWorking, kParked, kDone, kGone };
  std::vector<WorkerState> state(transport.world_size(),
                                 WorkerState::kUnknown);
  std::map<std::size_t, std::size_t> in_flight;
  std::size_t resolved = 0;
  std::size_t gone = 0;
  auto resolve = [&](std::size_t worker, WorkerState terminal) {
    if (state[worker] == WorkerState::kDone ||
        state[worker] == WorkerState::kGone) {
      return;
    }
    state[worker] = terminal;
    ++resolved;
    if (terminal == WorkerState::kGone) ++gone;
  };
  auto pick_cell = [&]() {
    std::size_t best = *pending.begin();
    double best_cost = -1.0;
    for (const std::size_t index : pending) {
      const double cost = expected_cost(cells[index]);
      // Strict > keeps the lowest index on ties (set iterates ascending);
      // +inf (never-observed scenario) beats every estimate.
      if (cost > best_cost) {
        best = index;
        best_cost = cost;
      }
    }
    return best;
  };
  auto dispatch = [&](std::size_t worker) {
    if (complete()) {
      transport.send(worker, "done");
      resolve(worker, WorkerState::kDone);
      return;
    }
    if (pending.empty()) {
      state[worker] = WorkerState::kParked;
      return;
    }
    const std::size_t index = pick_cell();
    pending.erase(index);
    in_flight[worker] = index;
    state[worker] = WorkerState::kWorking;
    // A failed send means the worker died racing the assignment — its
    // kPeerLeft is already queued and will requeue the cell.
    transport.send(worker, "cell " + std::to_string(index));
  };

  // Shared exit for every way a worker can fail: connection death
  // (kPeerLeft) and protocol violations (malformed/contradictory result,
  // unexpected message).  The in-flight cell is requeued onto a survivor;
  // only losing every worker fails the campaign.
  auto abandon_worker = [&](std::size_t worker, const std::string& reason,
                            bool send_reject) {
    const auto assignment = in_flight.find(worker);
    if (assignment != in_flight.end()) {
      const std::size_t index = assignment->second;
      in_flight.erase(assignment);
      pending.insert(index);
      log_warn("elastic: worker ", worker, " failed (", reason,
               "); requeueing cell ", index);
      // Hand the orphan to a parked survivor immediately.
      for (std::size_t other = 1; other < state.size(); ++other) {
        if (state[other] == WorkerState::kParked) {
          dispatch(other);
          break;
        }
      }
    } else {
      log_warn("elastic: worker ", worker, " failed (", reason, ")");
    }
    if (send_reject) transport.send(worker, "reject " + reason);
    resolve(worker, WorkerState::kGone);
    if (gone == expected_workers && !complete()) {
      throw std::runtime_error(
          "elastic campaign failed: all " + std::to_string(expected_workers) +
          " workers departed with " +
          std::to_string(cells.size() - done_count) + " of " +
          std::to_string(cells.size()) + " cells incomplete");
    }
  };

  while (!(complete() && resolved == expected_workers)) {
    auto message = transport.recv();
    if (!message) {
      throw std::runtime_error(
          "elastic coordinator: transport closed mid-campaign");
    }
    const std::size_t worker = message->from;

    if (message->kind == par::net::Message::Kind::kPeerLeft) {
      abandon_worker(worker, message->payload, false);
      continue;
    }

    const std::string& payload = message->payload;
    if (payload.rfind("ready ", 0) == 0) {
      // The handshake comes once, first: a second `ready` would overwrite
      // the worker's in-flight cell and lose it.
      if (state[worker] != WorkerState::kUnknown) {
        abandon_worker(worker, "unexpected ready", true);
        continue;
      }
      const std::string theirs = payload.substr(6);
      if (theirs != fp_hex) {
        transport.send(worker,
                       "reject plan fingerprint mismatch (worker " + theirs +
                           ", coordinator " + fp_hex +
                           ") — every peer must run the identical plan");
        resolve(worker, WorkerState::kGone);
        continue;
      }
      dispatch(worker);
      continue;
    }

    if (payload.rfind("result ", 0) == 0) {
      // A bad result — unparseable, unassigned, or contradicting the plan
      // — marks the *worker* failed (its bytes cannot be trusted), never
      // the campaign: the cell is requeued and recomputed elsewhere.
      CellResult cell_result;
      std::size_t index = 0;
      try {
        const std::size_t newline = payload.find('\n');
        if (newline == std::string::npos) {
          throw std::runtime_error("result message without a cell block");
        }
        index = parse_index(payload.substr(7, newline - 7), "result index");
        const auto assignment = in_flight.find(worker);
        if (assignment == in_flight.end() || assignment->second != index) {
          throw std::runtime_error("returned cell " + std::to_string(index) +
                                   " it was not assigned");
        }
        cell_result =
            decode_cell_result(payload.substr(newline + 1), cells.size());
        if (cell_result.index != index) {
          throw std::runtime_error("result for cell " +
                                   std::to_string(index) + " carries cell " +
                                   std::to_string(cell_result.index));
        }
        check_cell(cell_result, cells);
      } catch (const std::exception& error) {
        abandon_worker(worker, std::string("bad result: ") + error.what(),
                       true);
        continue;
      }
      in_flight.erase(worker);
      cell_done[index] = true;
      ++done_count;
      observe_cost(cell_result.record);
      if (driver.progress) {
        driver.progress->cell_done(cell_result.record.telemetry);
      }
      if (store) store->append(cell_result);
      records[index] = std::move(cell_result.record);
      if (complete()) {
        for (std::size_t other = 1; other < state.size(); ++other) {
          if (state[other] == WorkerState::kParked) {
            transport.send(other, "done");
            resolve(other, WorkerState::kDone);
          }
        }
      }
      dispatch(worker);
      continue;
    }

    abandon_worker(worker,
                   "unexpected message '" +
                       payload.substr(0, payload.find('\n')) + "'",
                   true);
  }

  // Every cell completed: when any was computed, replace the appended
  // journal with the whole store in plan order — clean even when an append
  // failed or was torn mid-run.
  ExperimentResult result = finish_campaign(
      plan, std::move(records), driver.use_cache ? driver.cache_dir : "",
      store && store->writable() && !from_cache);
  result.from_cache = from_cache;
  return result;
}

WorkerReport run_campaign_worker(const ExperimentPlan& plan,
                                 par::net::Transport& transport,
                                 const CampaignWorkerOptions& options) {
  if (transport.rank() == 0) {
    throw std::logic_error("run_campaign_worker needs rank >= 1");
  }
  validate_plan(plan);
  const auto cells = plan.cells();
  WorkerReport report;

  ExperimentDriver::Options cell_options = options.driver;
  cell_options.progress = nullptr;  // the coordinator owns campaign progress
  const ExperimentDriver driver(cell_options);

  if (!transport.send(0, "ready " + fingerprint_hex(plan.fingerprint()))) {
    throw CoordinatorLostError(
        "elastic worker: coordinator unreachable at handshake");
  }

  for (;;) {
    auto message = transport.recv();
    if (!message) {
      throw std::runtime_error(
          "elastic worker: transport closed mid-campaign");
    }
    if (message->kind == par::net::Message::Kind::kPeerLeft) {
      if (message->from == 0) {
        // Missed heartbeat deadline or dead connection: surface a typed
        // error so the process can exit with a distinct status instead of
        // hanging on a queue that will never drain.
        throw CoordinatorLostError("elastic worker: coordinator lost (" +
                                   message->payload + ")");
      }
      continue;  // a sibling left an in-process world; not our concern
    }

    const std::string& payload = message->payload;
    if (payload == "done") {
      transport.close();
      return report;
    }
    if (payload.rfind("reject ", 0) == 0) {
      transport.close();
      throw std::runtime_error("elastic worker: " + payload.substr(7));
    }
    if (payload.rfind("cell ", 0) == 0) {
      const std::size_t index =
          parse_index(payload.substr(5), "cell assignment");
      if (index >= cells.size()) {
        throw std::runtime_error("elastic worker: assigned cell " +
                                 std::to_string(index) +
                                 " is out of range");
      }
      if (options.max_cells != 0 &&
          report.cells_completed >= options.max_cells) {
        // Fault injection: abandon the assignment like a crash — peers
        // observe the departure and the coordinator requeues the cell.
        transport.close();
        return report;
      }
      double stall_ms = 0.0;
      if (fault::fire("cell.stall_ms", stall_ms) && stall_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(static_cast<std::int64_t>(stall_ms)));
      }
      auto run_records = driver.run_cells(plan, {cells[index]});
      CellResult cell_result{index, std::move(run_records.front())};
      report.telemetry.merge(cell_result.record.telemetry);
      ++report.cells_completed;
      if (!transport.send(0, "result " + std::to_string(index) + "\n" +
                                 encode_cell_result(cell_result))) {
        throw CoordinatorLostError(
            "elastic worker: coordinator unreachable mid-campaign");
      }
      continue;
    }
    throw std::runtime_error(
        "elastic worker: unexpected message '" +
        payload.substr(0, payload.find('\n')) + "'");
  }
}

}  // namespace aedbmls::expt
