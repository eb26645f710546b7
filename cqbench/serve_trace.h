// The seeded request traces of the two serve workloads, shared by the
// timed replay (serve.cc) and the traced run (layers.cc).

#ifndef CQBENCH_SERVE_TRACE_H_
#define CQBENCH_SERVE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "workload.h"

namespace cqbench {

struct ServeTraceSpec {
  uint32_t dbs = 0;         ///< database pool size
  uint32_t vertices = 0;    ///< G(vertices, edge_p) per database version
  double edge_p = 0;
  uint32_t ops = 0;         ///< trace length at scale 1
  uint32_t update_every = 0;  ///< every this-many-th operation re-registers
                              ///< a random database
  bool zipf = false;        ///< zipfian (theta 0.99) vs uniform queries
  bool durable = false;     ///< WAL-logged registry recovered by Open()
  uint32_t wal_records = 0; ///< log records after the recovered snapshot
  double scale = 1.0;
};

ServeTraceSpec HotSpec(double scale);
ServeTraceSpec ChurnSpec(double scale);

struct ServeOp {
  bool update = false;
  uint32_t db = 0;
  uint32_t version = 0;  ///< update: version installed; request: version seen
  uint32_t query = 0;
  cqcs::HomTask task = cqcs::HomTask::kDecide;
  size_t expected = 0;   ///< index into ServeTrace::expected
};

struct ServeTrace {
  std::vector<QueryShape> queries;
  std::vector<std::string> query_texts;
  /// versions[d][v]: content of database d at version v.
  std::vector<std::vector<Digraph>> versions;
  std::vector<std::vector<std::string>> version_texts;
  std::vector<uint32_t> current;  ///< version after the whole trace
  std::vector<ServeOp> ops;
  std::vector<Expected> expected;
};

ServeTrace BuildServeTrace(const ServeTraceSpec& spec, uint64_t seed);

std::string DbName(uint32_t d);

}  // namespace cqbench

#endif  // CQBENCH_SERVE_TRACE_H_
