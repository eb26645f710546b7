// cqbench: the end-to-end benchmark program.
//
//   cqbench --workload serve_hot|serve_churn|oneoff --seed N --seconds S
//           --trace 0|1 --scratch DIR [--hom-tool PATH]
//   cqbench --selftest
//
// --trace 0 replays the workload's seeded trace in passes for S seconds
// (at least three), each pass from fresh program state, and reports the
// end-to-end metrics from each operation's best time over the passes.
// --trace 1 replays samples of all three traces with the calls split by
// layer and reports the per-layer metrics. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "workload.h"

namespace cqbench {

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config) {
  if (name == "serve_hot") return MakeServeHot(config);
  if (name == "serve_churn") return MakeServeChurn(config);
  if (name == "oneoff") return MakeOneoff(config);
  return nullptr;
}

Replay ReplayPasses(Workload& w, double seconds, size_t min_passes) {
  Replay out;
  const size_t n = w.size();
  out.best.assign(n, INFINITY);
  std::vector<OpRecord> first(n);
  const Clock::time_point start = Clock::now();
  while (out.passes < min_passes || SecondsSince(start) < seconds) {
    w.BeforeSetup();
    std::string error;
    const Clock::time_point s0 = Clock::now();
    const bool ok = w.Setup(&error);
    out.setups.push_back(SecondsSince(s0));
    if (!ok) {
      out.error = "setup failed: " + error;
      w.Teardown();
      return out;
    }
    double pass_sum = 0;
    for (size_t i = 0; i < n; ++i) {
      w.Prepare(i);
      const Clock::time_point t0 = Clock::now();
      w.Execute(i);
      const double dt =
          std::chrono::duration<double>(Clock::now() - t0).count();
      OpRecord rec = w.Check(i);
      pass_sum += dt;
      out.best[i] = std::min(out.best[i], dt);
      ++out.attempted;
      if (rec.failed) {
        ++out.failed;
        if (out.first_failure.empty()) {
          out.first_failure = "op " + std::to_string(i) + ": " + rec.why;
        }
      }
      if (out.passes == 0) {
        first[i] = rec;
      } else if (rec.fingerprint != first[i].fingerprint ||
                 rec.plan_hit != first[i].plan_hit ||
                 rec.result_hit != first[i].result_hit) {
        // Every pass starts from fresh state, so every pass must give the
        // same answers with the same cache outcomes.
        if (out.nondeterminism.empty()) {
          out.nondeterminism = "op " + std::to_string(i) + " differs in pass " +
                               std::to_string(out.passes);
        }
      }
    }
    w.Teardown();
    out.pass_sums.push_back(pass_sum);
    ++out.passes;
  }
  return out;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i > 0 ? ", " : "") + std::string("\"") + metrics[i].name +
           "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

namespace {

int RunEndToEnd(const Args& args) {
  WorkloadConfig config;
  config.seed = args.seed;
  config.scratch_dir = args.scratch;
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, config);
  const Replay r = ReplayPasses(*w, args.seconds, /*min_passes=*/3);
  if (!r.error.empty()) {
    std::fprintf(stderr, "cqbench: %s\n", r.error.c_str());
    return 2;
  }
  double total = 0;
  for (double t : r.best) total += t;
  std::vector<double> us(r.best.size());
  for (size_t i = 0; i < us.size(); ++i) us[i] = r.best[i] * 1e6;
  const double p50 = Percentile(us, 0.50);
  const double p99 = Percentile(us, 0.99);

  std::fprintf(stderr,
               "cqbench: %s seed=%llu ops=%zu passes=%zu best-sum=%.4fs "
               "pass-sums min/max=%.4f/%.4fs setup first/min=%.4f/%.4fs\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), r.best.size(),
               r.passes, total,
               *std::min_element(r.pass_sums.begin(), r.pass_sums.end()),
               *std::max_element(r.pass_sums.begin(), r.pass_sums.end()),
               r.setups.front(),
               *std::min_element(r.setups.begin(), r.setups.end()));
  {
    // Where the best-of-passes time goes, by operation kind.
    std::map<std::string, std::pair<double, size_t>> by_kind;
    for (size_t i = 0; i < r.best.size(); ++i) {
      auto& [sum, count] = by_kind[w->Label(i)];
      sum += r.best[i];
      ++count;
    }
    std::vector<std::pair<double, std::string>> rows;
    for (const auto& [label, v] : by_kind) {
      char line[160];
      std::snprintf(line, sizeof line, "  %-28s ops=%-6zu sum=%.4fs mean=%.1fus",
                    label.c_str(), v.second, v.first,
                    v.first / static_cast<double>(v.second) * 1e6);
      rows.emplace_back(v.first, line);
    }
    std::sort(rows.rbegin(), rows.rend());
    for (const auto& row : rows) std::fprintf(stderr, "%s\n", row.second.c_str());
  }
  w.reset();
  if (!r.first_failure.empty()) {
    std::fprintf(stderr, "cqbench: first failure: %s\n",
                 r.first_failure.c_str());
  }
  if (!r.nondeterminism.empty()) {
    std::fprintf(stderr, "cqbench: nondeterminism: %s\n",
                 r.nondeterminism.c_str());
  }
  const std::vector<Metric> metrics = {
      // One cold set-up: the first pass's, the first in the process.
      {"setup_s", r.setups.front(), "s"},
      {"ops_per_s", static_cast<double>(r.best.size()) / total, "1/s"},
      {"p50_us", p50, "us"},
      {"p99_us", p99, "us"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
  PrintResult(r.failed == 0 && r.nondeterminism.empty(), r.attempted,
              r.failed, metrics);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (flag == "--workload") {
      args->workload = value();
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      args->trace = value() == "1";
    } else if (flag == "--scratch") {
      args->scratch = value();
    } else if (flag == "--hom-tool") {
      args->hom_tool = value();
    } else if (flag == "--selftest") {
      args->selftest = true;
    } else {
      std::fprintf(stderr, "cqbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace cqbench

int main(int argc, char** argv) {
  using namespace cqbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (args.selftest) return RunSelfTest();
  if (args.workload != "serve_hot" && args.workload != "serve_churn" &&
      args.workload != "oneoff") {
    std::fprintf(stderr, "cqbench: --workload must be serve_hot, "
                         "serve_churn or oneoff\n");
    return 2;
  }
  if (args.scratch.empty()) {
    std::fprintf(stderr, "cqbench: --scratch DIR is required\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.scratch, ec);
  return args.trace ? RunTraced(args) : RunEndToEnd(args);
}
