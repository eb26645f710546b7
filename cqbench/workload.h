// Workloads: seeded traces replayed against the library, one operation at a
// time, with every answer checked against the oracle in bench.h.

#ifndef CQBENCH_WORKLOAD_H_
#define CQBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "bench.h"

namespace cqcs::serve {
class ServingEngine;
}  // namespace cqcs::serve

namespace cqbench {

/// What one execution of an operation produced, reduced to what the checks
/// compare: the oracle verdict and a fingerprint of the answer plus the
/// cache flags (which must repeat exactly in every pass).
struct OpRecord {
  uint64_t fingerprint = 0;
  bool plan_hit = false;
  bool result_hit = false;
  bool failed = false;  ///< errored, answered "unknown" or disagreed
  std::string why;      ///< first line of the failure, when failed
  std::string answer;   ///< serve requests: the protocol's answer text
};

/// An oracle expectation for a HomEngine answer to one task.
struct Expected {
  cqcs::HomTask task = cqcs::HomTask::kDecide;
  bool yes = false;            ///< decide / witness
  uint64_t count = 0;          ///< count
  uint64_t rows_digest = 0;    ///< project: RowsDigest of the rows
  size_t rows = 0;             ///< project: number of rows
  const Facts* source = nullptr;  ///< witness: checked tuple by tuple
  const Facts* target = nullptr;
};

/// Checks `result` against `want`; fills record->failed/why and the
/// answer fingerprint.
void CheckAnswer(const cqcs::EngineResult& result, const Expected& want,
                 OpRecord* record);

/// The answer as the `hom_tool serve` protocol prints it ("yes", "no",
/// "count=N", "rows=N").
std::string ProtocolAnswer(const cqcs::EngineResult& result);

/// The `hom_tool serve` response line for a served request, with the
/// backend left as "*": "ok <answer> backend=* plan_hit=P result_hit=R".
std::string ProtocolLine(const OpRecord& record);

/// True when a protocol response `line` matches `want` (ProtocolLine's
/// form, or an exact line); "*" matches any one token.
bool ProtocolLineMatches(const std::string& line, const std::string& want);

/// One replayable trace. A pass is Setup(), then for every operation i
/// Prepare(i) / Execute(i) / Check(i), then Teardown(). Only Setup() and
/// Execute(i) are timed; each pass starts from fresh program state, so
/// operation i meets the same caches and registry in every pass.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual size_t size() const = 0;
  /// Untimed preparation of the on-disk state a pass starts from.
  virtual void BeforeSetup() {}
  /// Builds fresh program state; the time until the first operation can
  /// be issued. False (with `error`) stops the run.
  virtual bool Setup(std::string* error) = 0;
  virtual void Prepare(size_t /*i*/) {}
  virtual void Execute(size_t i) = 0;
  virtual OpRecord Check(size_t i) = 0;
  virtual void Teardown() = 0;
  /// The operation's kind, for the per-kind breakdown on stderr.
  virtual std::string Label(size_t i) const = 0;
  /// The serve workloads' engine between Setup() and Teardown(), for the
  /// traced run's counters; null elsewhere.
  virtual const cqcs::serve::ServingEngine* serving_engine() const {
    return nullptr;
  }
};

struct WorkloadConfig {
  uint64_t seed = 1;
  std::string scratch_dir;  ///< where serve_churn keeps its data dir
  /// Scale factor on the trace length, for the traced run's samples and
  /// the self test (1.0 = the measured trace).
  double scale = 1.0;
};

std::unique_ptr<Workload> MakeServeHot(const WorkloadConfig& config);
std::unique_ptr<Workload> MakeServeChurn(const WorkloadConfig& config);
std::unique_ptr<Workload> MakeOneoff(const WorkloadConfig& config);
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config);

}  // namespace cqbench

#endif  // CQBENCH_WORKLOAD_H_
