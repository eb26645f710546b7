// The replay harness and result printing shared by the end-to-end run, the
// traced run and the self test.

#ifndef CQBENCH_HARNESS_H_
#define CQBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace cqbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch;   ///< scratch directory inside the checkout
  std::string hom_tool;  ///< the hom_tool binary, for the protocol check
  bool selftest = false;
};

/// One replay of a workload in passes.
struct Replay {
  std::vector<double> best;       ///< per operation: least time over passes
  std::vector<double> pass_sums;  ///< per pass: sum of operation times
  std::vector<double> setups;     ///< per pass: Setup() time (first = cold)
  size_t passes = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
  std::string nondeterminism;  ///< first answer/flag that changed
  std::string error;           ///< a setup that failed stops the replay
};

/// Replays `w` for `seconds`, and for at least `min_passes` passes.
Replay ReplayPasses(Workload& w, double seconds, size_t min_passes);

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q);

/// Peak resident set of this process, MiB.
double PeakRssMb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Prints the result line: {"correct", "attempted", "failed", "metrics"}.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

int RunTraced(const Args& args);
int RunSelfTest();

}  // namespace cqbench

#endif  // CQBENCH_HARNESS_H_
