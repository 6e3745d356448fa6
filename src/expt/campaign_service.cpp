#include "expt/campaign_service.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/durable_file.hpp"
#include "common/fault.hpp"
#include "common/logging.hpp"
#include "expt/manifest.hpp"

namespace aedbmls::expt {
namespace {

// v2: every cell block is followed by a `crc <8 hex>` line; v1 journals
// (no per-record checksums) read as stale and replay nothing.
constexpr const char* kJournalMagic = "aedbmls-campaign-journal v2";
constexpr const char* kJournalCrcPrefix = "crc ";

std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%llx",
                static_cast<unsigned long long>(fingerprint));
  return buffer;
}

std::size_t parse_index(const std::string& token, const char* what) {
  try {
    std::size_t pos = 0;
    const unsigned long long value = std::stoull(token, &pos);
    if (pos != token.size()) throw std::invalid_argument(token);
    return static_cast<std::size_t>(value);
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("elastic: bad ") + what + " '" +
                             token + "'");
  }
}

std::string read_file_or_empty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream bytes;
  bytes << in.rdbuf();
  if (!in) return {};
  return bytes.str();
}

/// True when `record` matches the plan's cell table entry — the same
/// metadata check `merge_manifests` applies to shard files.
bool matches_cell(const RunRecord& record, const ExperimentPlan::Cell& cell) {
  return record.algorithm == cell.algorithm &&
         record.scenario == cell.scenario && record.run_seed == cell.seed;
}

std::string journal_header(const std::string& fp_hex, std::size_t cell_count) {
  return std::string(kJournalMagic) + " " + fp_hex + " " +
         std::to_string(cell_count);
}

/// One committed journal record: the cell block plus its CRC line.  A
/// record is only replayed once the CRC line verifies, so a crash at any
/// byte offset leaves a cleanly detectable torn tail.
std::string journal_record(const CellResult& result) {
  const std::string block = encode_cell_result(result);
  return block + kJournalCrcPrefix + io::crc32_hex(block) + "\n";
}

/// Replays a crash-resume journal.  Tolerant by design: a missing file, an
/// empty file, a stale/wrong-fingerprint header, a bit-flipped record or a
/// torn tail (the coordinator died mid-append) all yield the valid prefix
/// of CRC-verified records, never an error — the lost cells simply run
/// again.
std::vector<CellResult> load_journal(
    const std::string& path, const std::string& fp_hex,
    const std::vector<ExperimentPlan::Cell>& cells) {
  const std::string text = read_file_or_empty(path);
  if (text.empty()) return {};
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) return {};
  if (line != journal_header(fp_hex, cells.size())) {
    log_warn("elastic: ignoring stale journal ", path, " (header '", line,
             "')");
    return {};
  }
  // Records accumulate until their `crc` line; a record is committed only
  // when the checksum verifies and the decoded cell matches the plan.
  std::vector<CellResult> replayed;
  std::vector<bool> seen(cells.size(), false);
  std::string block;
  bool intact = true;
  while (intact && std::getline(in, line)) {
    if (line.rfind(kJournalCrcPrefix, 0) != 0) {
      block += line;
      block += '\n';
      continue;
    }
    if (line.substr(4) != io::crc32_hex(block)) {
      intact = false;
      break;
    }
    try {
      CellResult result = decode_cell_result(block, cells.size());
      if (seen[result.index] ||
          !matches_cell(result.record, cells[result.index])) {
        intact = false;
        break;
      }
      seen[result.index] = true;
      replayed.push_back(std::move(result));
      block.clear();
    } catch (const std::invalid_argument&) {
      intact = false;
    }
  }
  if (!intact || !block.empty()) {
    log_warn("elastic: journal ", path,
             " has a torn or corrupt tail; replaying the valid prefix (",
             replayed.size(), " cells)");
  }
  return replayed;
}

}  // namespace

std::vector<CellResult> load_campaign_journal(const std::string& path,
                                              const ExperimentPlan& plan) {
  return load_journal(path, fingerprint_hex(plan.fingerprint()), plan.cells());
}

std::map<std::string, double> cost_priors_from_snapshot(
    const telemetry::Snapshot& snapshot) {
  constexpr std::string_view kPrefix = "scenario.";
  constexpr std::string_view kSuffix = ".wall_s";
  std::map<std::string, double> priors;
  for (const auto& [name, gauge] : snapshot.gauges) {
    if (gauge.count == 0) continue;
    if (name.size() <= kPrefix.size() + kSuffix.size()) continue;
    if (name.compare(0, kPrefix.size(), kPrefix) != 0) continue;
    if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
        0) {
      continue;
    }
    priors[name.substr(kPrefix.size(),
                       name.size() - kPrefix.size() - kSuffix.size())] =
        gauge.mean();
  }
  return priors;
}

std::string campaign_journal_path(const std::string& dir,
                                  const ExperimentPlan& plan) {
  std::ostringstream path;
  path << dir << "/campaign_" << plan.scale.name << "_"
       << fingerprint_hex(plan.fingerprint()) << ".journal";
  return path.str();
}

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

  ExperimentResult result;
  std::vector<RunRecord> records(cells.size());
  std::vector<bool> cell_done(cells.size(), false);
  std::set<std::size_t> pending;
  std::size_t done_count = 0;

  // Cache fast path — identical contract to ExperimentDriver::run: a
  // cached CSV satisfies the campaign outright, and the loop below only
  // serves `warm` + `done` to each worker's handshake.
  if (driver.use_cache && !driver.collect_records) {
    if (auto cached = load_cached_samples(driver.cache_dir, plan)) {
      result.samples = std::move(*cached);
      result.from_cache = true;
      done_count = cells.size();
      cell_done.assign(cells.size(), true);
    }
  }

  // Online per-scenario cost model (mean observed wall seconds), seeded by
  // the caller's priors.  Scheduling only — never touches result bytes.
  std::map<std::string, telemetry::GaugeStat> observed_cost;
  auto observe_cost = [&](const RunRecord& record) {
    observed_cost[record.scenario].observe(record.wall_seconds);
  };
  auto expected_cost = [&](const ExperimentPlan::Cell& cell) {
    const auto seen = observed_cost.find(cell.scenario);
    if (seen != observed_cost.end() && seen->second.count > 0) {
      return seen->second.mean();
    }
    const auto prior = options.cost_priors.find(cell.scenario);
    if (prior != options.cost_priors.end()) return prior->second;
    // Unknown cost schedules first: the sooner it is observed, the better
    // every later decision gets.
    return std::numeric_limits<double>::infinity();
  };

  // Crash-resume journal: replay the valid prefix, then rewrite the file
  // (atomically — a crash during the rewrite must leave either the old
  // journal or the clean new one, never a prefix of the latter).
  const bool journaling =
      !result.from_cache && options.journal && driver.use_cache;
  const std::string journal_path =
      campaign_journal_path(driver.cache_dir, plan);
  // lint: allow(durable-io): append-mode journal is flushed per record by
  // design (crash resume needs every completed cell on disk immediately);
  // the startup rewrite above it goes through io::atomic_write_file and
  // each record carries its own CRC, so torn tails replay their valid
  // prefix (see load_campaign_journal).
  std::ofstream journal;
  if (journaling) {
    std::size_t replayed = 0;
    std::string rewrite = journal_header(fp_hex, cells.size()) + "\n";
    for (CellResult& prior : load_journal(journal_path, fp_hex, cells)) {
      cell_done[prior.index] = true;
      ++done_count;
      ++replayed;
      observe_cost(prior.record);
      if (driver.progress) driver.progress->cell_done(prior.record.telemetry);
      rewrite += journal_record(prior);
      records[prior.index] = std::move(prior.record);
    }
    std::error_code ec;
    std::filesystem::create_directories(driver.cache_dir, ec);
    if (io::atomic_write_file(journal_path, rewrite)) {
      journal.open(journal_path, std::ios::app | std::ios::binary);
    }
    if (!journal) {
      log_warn("elastic: cannot write journal ", journal_path,
               "; crash resume disabled for this run");
    }
    if (replayed > 0) {
      log_info("elastic: journal replayed ", replayed, " of ", cells.size(),
               " cells");
    }
  }

  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!cell_done[i]) pending.insert(i);
  }
  auto complete = [&]() { return done_count == cells.size(); };
  if (expected_workers == 0 && !complete()) {
    throw std::runtime_error(
        "elastic campaign needs at least one worker (world size 1, " +
        std::to_string(pending.size()) + " cells to run)");
  }

  // Cache warm-up payload: the plan's cached indicator CSV, shipped to
  // every worker so their local caches start warm.
  std::string warm_bytes;
  if (options.warm_worker_caches) {
    warm_bytes = read_file_or_empty(indicator_csv_path(driver.cache_dir, plan));
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
      const std::string theirs = payload.substr(6);
      if (theirs != fp_hex) {
        transport.send(worker,
                       "reject plan fingerprint mismatch (worker " + theirs +
                           ", coordinator " + fp_hex +
                           ") — every peer must run the identical plan");
        resolve(worker, WorkerState::kGone);
        continue;
      }
      if (!warm_bytes.empty()) {
        transport.send(worker, "warm\n" + warm_bytes);
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
        if (cell_result.index != index ||
            !matches_cell(cell_result.record, cells[index])) {
          throw std::runtime_error("cell " + std::to_string(index) +
                                   " result contradicts the plan's cell "
                                   "table");
        }
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
      if (journal) {
        const std::string record = journal_record(cell_result);
        if (fault::fire("io.journal.torn_tail")) {
          // Persist half a record then stop journaling — the next startup
          // must truncate to the valid prefix.
          journal << record.substr(0, record.size() / 2);
          journal.flush();
          journal.close();
          log_warn("fault: tore the journal tail at cell ", index,
                   "; journaling stops for this run");
        } else {
          journal << record;
          journal.flush();
        }
      }
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

  if (!result.from_cache) {
    result.samples = reduce_to_samples(plan, records);
    result.telemetry = merge_telemetry(records);
    if (driver.use_cache) {
      store_cached_samples(driver.cache_dir, plan, result.samples);
    }
    if (driver.collect_records) result.records = std::move(records);
  }
  if (journaling) {
    // Every cell completed, so the journal is spent — even one whose
    // append path failed or was torn mid-run.
    if (journal.is_open()) journal.close();
    std::error_code ec;
    std::filesystem::remove(journal_path, ec);
  }
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
  cell_options.use_cache = false;  // cells are computed, never cache-loaded
  cell_options.collect_records = false;
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
    if (payload.rfind("warm\n", 0) == 0) {
      if (options.driver.use_cache) {
        std::error_code ec;
        std::filesystem::create_directories(options.driver.cache_dir, ec);
        const std::string path =
            indicator_csv_path(options.driver.cache_dir, plan);
        if (!io::atomic_write_file(path, payload.substr(5))) {
          log_warn("elastic: cannot warm cache file ", path);
        }
      }
      continue;
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
