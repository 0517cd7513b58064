#include "src/fuzz/concurrent.h"

#include <atomic>
#include <thread>

#include "src/common/rng.h"
#include "src/engine/database.h"
#include "src/fuzz/data_gen.h"
#include "src/fuzz/query_gen.h"

namespace gapply::fuzz {

namespace {

/// Derives one session's statement schedule from the dataset + a seeded
/// stream. Prepared-statement names are drawn from a small shared pool so
/// schedules exercise duplicate PREPAREs, EXECUTE-before-PREPARE, and
/// DEALLOCATE-of-missing — all of which must error identically in the
/// concurrent run and the serial replay.
std::vector<std::string> GenerateSchedule(const FuzzDataset& dataset,
                                          int statements, Rng* rng,
                                          std::vector<std::string>* features) {
  std::vector<std::string> schedule;
  schedule.reserve(static_cast<size_t>(statements));
  for (int j = 0; j < statements; ++j) {
    const int roll = static_cast<int>(rng->UniformInt(0, 99));
    if (roll < 40) {
      GeneratedQuery q = GenerateQuery(dataset, rng);
      features->push_back("concurrent-select");
      schedule.push_back(std::move(q.sql));
    } else if (roll < 55) {
      GeneratedQuery q = GenerateQuery(dataset, rng);
      std::string name = "p";
      name += std::to_string(rng->UniformInt(0, 2));
      features->push_back("concurrent-prepare");
      schedule.push_back("prepare " + name + " as " + q.sql);
    } else if (roll < 75) {
      std::string name = "p";
      name += std::to_string(rng->UniformInt(0, 2));
      features->push_back("concurrent-execute");
      schedule.push_back("execute " + name);
    } else if (roll < 80) {
      std::string name = "p";
      name += std::to_string(rng->UniformInt(0, 2));
      features->push_back("concurrent-deallocate");
      schedule.push_back("deallocate " + name);
    } else if (roll < 85) {
      GeneratedQuery q = GenerateQuery(dataset, rng);
      features->push_back("concurrent-explain");
      schedule.push_back("explain " + q.sql);
    } else {
      features->push_back("concurrent-set");
      switch (rng->UniformInt(0, 4)) {
        case 0:
          schedule.push_back(
              "set parallelism = " +
              std::to_string(rng->UniformInt(1, 4)));
          break;
        case 1: {
          static const int kSizes[] = {1, 7, 64, 1024};
          schedule.push_back(
              "set batch_size = " +
              std::to_string(kSizes[rng->UniformInt(0, 3)]));
          break;
        }
        case 2:
          schedule.push_back(rng->Bernoulli(0.5) ? "set storage = columnar"
                                                 : "set storage = row");
          break;
        case 3:
          schedule.push_back(rng->Bernoulli(0.5) ? "set plan_cache = on"
                                                 : "set plan_cache = off");
          break;
        default:
          schedule.push_back("set profile = off");
          break;
      }
    }
  }
  return schedule;
}

StatementOutcome RunStatement(Session* session, const std::string& sql) {
  StatementOutcome outcome;
  Result<QueryResult> result = session->Query(sql);
  if (!result.ok()) {
    outcome.ok = false;
    outcome.error = result.status().message();
    return outcome;
  }
  outcome.ok = true;
  outcome.rows.reserve(result->rows.size());
  for (const Row& row : result->rows) {
    outcome.rows.push_back(RowToString(row));
  }
  return outcome;
}

/// Runs every schedule on its own Session of `db`. When `concurrent`,
/// one thread per session with a start barrier (maximizes interleaving
/// even on few cores); otherwise sessions run one after another on the
/// calling thread — the serial replay.
std::vector<std::vector<StatementOutcome>> RunSchedules(
    Database* db, const std::vector<std::vector<std::string>>& schedules,
    bool concurrent) {
  std::vector<std::vector<StatementOutcome>> outcomes(schedules.size());
  auto run_one = [&](size_t s) {
    Session session(db);
    outcomes[s].reserve(schedules[s].size());
    for (const std::string& sql : schedules[s]) {
      outcomes[s].push_back(RunStatement(&session, sql));
    }
  };
  if (!concurrent) {
    for (size_t s = 0; s < schedules.size(); ++s) run_one(s);
    return outcomes;
  }
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(schedules.size());
  for (size_t s = 0; s < schedules.size(); ++s) {
    threads.emplace_back([&, s] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      run_one(s);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  return outcomes;
}

void DiffOutcomes(
    const std::vector<std::vector<std::string>>& schedules,
    const std::vector<std::vector<StatementOutcome>>& concurrent,
    const std::vector<std::vector<StatementOutcome>>& serial,
    std::vector<std::string>* mismatches) {
  for (size_t s = 0; s < schedules.size(); ++s) {
    for (size_t j = 0; j < schedules[s].size(); ++j) {
      const StatementOutcome& c = concurrent[s][j];
      const StatementOutcome& r = serial[s][j];
      const std::string where = "session " + std::to_string(s) +
                                " statement " + std::to_string(j) + " [" +
                                schedules[s][j] + "]: ";
      if (c.ok != r.ok) {
        mismatches->push_back(
            where + "concurrent " + (c.ok ? "succeeded" : "failed") +
            " but serial replay " + (r.ok ? "succeeded" : "failed") +
            (c.ok ? " with: " + r.error : " with: " + c.error));
        continue;
      }
      if (!c.ok) {
        if (c.error != r.error) {
          mismatches->push_back(where + "error mismatch: concurrent \"" +
                                c.error + "\" vs serial \"" + r.error + "\"");
        }
        continue;
      }
      if (c.rows.size() != r.rows.size()) {
        mismatches->push_back(
            where + "row count mismatch: concurrent " +
            std::to_string(c.rows.size()) + " vs serial " +
            std::to_string(r.rows.size()));
        continue;
      }
      for (size_t i = 0; i < c.rows.size(); ++i) {
        if (c.rows[i] != r.rows[i]) {
          mismatches->push_back(where + "row " + std::to_string(i) +
                                " mismatch: concurrent " + c.rows[i] +
                                " vs serial " + r.rows[i]);
          break;
        }
      }
    }
  }
}

}  // namespace

ConcurrentCaseResult RunConcurrentCase(uint64_t seed,
                                       const ConcurrentOptions& options) {
  ConcurrentCaseResult result;
  result.seed = seed;
  Rng rng(seed);
  const FuzzDataset dataset = GenerateDataset(&rng);
  result.features = dataset.features;
  result.schedules.resize(static_cast<size_t>(options.sessions));
  for (auto& schedule : result.schedules) {
    schedule =
        GenerateSchedule(dataset, options.statements, &rng, &result.features);
  }

  // EXPLAIN output embeds resolved DOP, so keep it admission-independent:
  // the serial replay uses the same tight budget. Serial queries run one
  // at a time, so the bucket is always full and never scales them down —
  // and neither path's *results* may depend on the grant.
  Database concurrent_db;
  concurrent_db.admission()->set_budget(options.admission_budget);
  Status install =
      InstallDataset(dataset, concurrent_db.catalog(), concurrent_db.stats());
  if (!install.ok()) {
    result.mismatches.push_back("dataset install failed: " +
                                install.message());
    return result;
  }
  const std::vector<std::vector<StatementOutcome>> concurrent_outcomes =
      RunSchedules(&concurrent_db, result.schedules, /*concurrent=*/true);

  Database serial_db;
  serial_db.admission()->set_budget(options.admission_budget);
  install = InstallDataset(dataset, serial_db.catalog(), serial_db.stats());
  if (!install.ok()) {
    result.mismatches.push_back("serial dataset install failed: " +
                                install.message());
    return result;
  }
  const std::vector<std::vector<StatementOutcome>> serial_outcomes =
      RunSchedules(&serial_db, result.schedules, /*concurrent=*/false);

  DiffOutcomes(result.schedules, concurrent_outcomes, serial_outcomes,
               &result.mismatches);
  if (!result.ok()) result.dataset_dump = DescribeDataset(dataset);
  return result;
}

ConcurrentFuzzReport RunConcurrentFuzz(uint64_t base_seed, int cases,
                                       const ConcurrentOptions& options,
                                       std::ostream* log) {
  ConcurrentFuzzReport report;
  for (int i = 0; i < cases; ++i) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(i);
    ConcurrentCaseResult result = RunConcurrentCase(seed, options);
    ++report.cases_run;
    if (result.ok()) continue;
    ++report.failures;
    if (log != nullptr) {
      *log << "=== CONCURRENT FUZZ FAILURE seed=" << seed << " ===\n";
      for (size_t s = 0; s < result.schedules.size(); ++s) {
        *log << "-- session " << s << " schedule:\n";
        for (const std::string& sql : result.schedules[s]) {
          *log << "   " << sql << "\n";
        }
      }
      for (const std::string& m : result.mismatches) {
        *log << "MISMATCH: " << m << "\n";
      }
      *log << result.dataset_dump;
      *log << "replay: gapply_fuzz --concurrent-cases=1 --seed=" << seed
           << "\n";
    }
    report.failure_details.push_back(std::move(result));
  }
  if (log != nullptr) {
    *log << "concurrent fuzz: " << report.cases_run << " cases, "
         << report.failures << " failures\n";
  }
  return report;
}

}  // namespace gapply::fuzz
