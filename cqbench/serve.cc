// serve_hot and serve_churn: seeded request traces replayed through
// serve::ServingEngine from one client thread.

#include <filesystem>
#include <map>
#include <optional>
#include <tuple>

#include "core/io.h"
#include "serve/serving.h"
#include "serve_trace.h"
#include "workload.h"

namespace cqbench {

using cqcs::EngineResult;
using cqcs::HomTask;
using cqcs::Result;
using cqcs::Status;
using cqcs::Structure;
using cqcs::serve::ServeOptions;
using cqcs::serve::ServingEngine;

namespace {

constexpr HomTask kServeTasks[] = {HomTask::kDecide, HomTask::kCount,
                                   HomTask::kProject};

/// The query pool of serve_hot: 22 short chains, stars, trees and cycles,
/// dealt round-robin by shape so that zipf rank r is the same kind of query
/// for every seed (the seed draws the trees, the graphs and the requests).
std::vector<QueryShape> HotQueries(Rng& rng) {
  std::vector<std::vector<QueryShape>> by_shape(4);
  for (uint32_t len = 2; len <= 7; ++len) {
    by_shape[0].push_back(ChainQuery(
        len, len % 2 == 0 ? std::vector<uint32_t>{0}
                          : std::vector<uint32_t>{0, len}));
  }
  for (uint32_t k = 2; k <= 6; ++k) by_shape[1].push_back(StarQuery(k));
  for (uint32_t e = 4; e <= 11; ++e) {
    by_shape[2].push_back(TreeQuery(
        rng, e, e % 2 == 0 ? std::vector<uint32_t>{0}
                           : std::vector<uint32_t>{0, e}));
  }
  for (uint32_t m = 3; m <= 5; ++m) by_shape[3].push_back(CycleQuery(m));
  std::vector<QueryShape> pool;
  for (size_t i = 0; pool.size() < 22; ++i) {
    for (const auto& shapes : by_shape) {
      if (i < shapes.size()) pool.push_back(shapes[i]);
    }
  }
  return pool;
}

/// The query pool of serve_churn: 120 queries, so that its distinct
/// (task, query, database) keys overflow the 4096-entry result cache and
/// its (query, database) pair plans the 512-entry plan cache.
std::vector<QueryShape> ChurnQueries(Rng& rng) {
  std::vector<QueryShape> pool;
  for (uint32_t len = 1; len <= 6; ++len) {
    pool.push_back(ChainQuery(len, {0}));
    pool.push_back(ChainQuery(len, {0, len}));
  }
  for (uint32_t k = 2; k <= 5; ++k) pool.push_back(StarQuery(k));
  pool.push_back(CycleQuery(3));
  pool.push_back(CycleQuery(4));
  while (pool.size() < 120) {
    const uint32_t e = 3 + static_cast<uint32_t>(pool.size() % 6);
    pool.push_back(TreeQuery(rng, e, pool.size() % 2 == 0
                                         ? std::vector<uint32_t>{0}
                                         : std::vector<uint32_t>{0, e}));
  }
  return pool;
}

}  // namespace

ServeTrace BuildServeTrace(const ServeTraceSpec& spec, uint64_t seed) {
  ServeTrace t;
  Rng rng(seed);
  t.queries = spec.durable ? ChurnQueries(rng) : HotQueries(rng);
  for (const QueryShape& q : t.queries) t.query_texts.push_back(q.Text());
  t.versions.resize(spec.dbs);
  t.current.assign(spec.dbs, 0);
  for (uint32_t d = 0; d < spec.dbs; ++d) {
    t.versions[d].push_back(RandomDigraph(rng, spec.vertices, spec.edge_p));
  }
  // serve_churn's recovered catalog: every database in the snapshot, the
  // first `wal_records` re-registered once more in the log after it.
  for (uint32_t r = 0; r < spec.wal_records; ++r) {
    const uint32_t d = r % spec.dbs;
    t.versions[d].push_back(RandomDigraph(rng, spec.vertices, spec.edge_p));
    t.current[d] = static_cast<uint32_t>(t.versions[d].size() - 1);
  }

  const Zipf zipf(static_cast<uint32_t>(t.queries.size()), 0.99);

  std::map<std::tuple<uint32_t, uint32_t, uint32_t, int>, size_t> memo;
  const size_t op_count =
      static_cast<size_t>(static_cast<double>(spec.ops) * spec.scale);
  for (size_t i = 0; i < op_count; ++i) {
    ServeOp op;
    op.db = rng.Below(spec.dbs);
    if (i % spec.update_every == spec.update_every - 1) {
      op.update = true;
      t.versions[op.db].push_back(
          RandomDigraph(rng, spec.vertices, spec.edge_p));
      op.version = static_cast<uint32_t>(t.versions[op.db].size() - 1);
      t.current[op.db] = op.version;
      t.ops.push_back(op);
      continue;
    }
    op.query = spec.zipf ? zipf.Sample(rng)
                         : rng.Below(static_cast<uint32_t>(t.queries.size()));
    op.task = kServeTasks[rng.Below(3)];
    op.version = t.current[op.db];
    // Expected answers are computed per database version, so an answer
    // served from a stale cache entry disagrees with the oracle.
    const auto key = std::make_tuple(op.query, op.db, op.version,
                                     static_cast<int>(op.task));
    auto it = memo.find(key);
    if (it == memo.end()) {
      const QueryShape& q = t.queries[op.query];
      const Digraph& g = t.versions[op.db][op.version];
      Expected want;
      want.task = op.task;
      if (op.task == HomTask::kProject) {
        auto rows = OracleProject(q, g);
        want.rows = rows.size();
        want.rows_digest = RowsDigest(std::move(rows));
      } else {
        want.count = OracleCount(q, g);
        want.yes = want.count > 0;
      }
      it = memo.emplace(key, t.expected.size()).first;
      t.expected.push_back(want);
    }
    op.expected = it->second;
    t.ops.push_back(op);
  }
  for (auto& per_db : t.versions) {
    std::vector<std::string> texts;
    for (const Digraph& g : per_db) texts.push_back(g.ToFacts().Text());
    t.version_texts.push_back(std::move(texts));
  }
  return t;
}

std::string DbName(uint32_t d) { return "db" + std::to_string(d); }

ServeTraceSpec HotSpec(double scale) {
  ServeTraceSpec s;
  s.dbs = 16;
  s.vertices = 40;
  s.edge_p = 0.1;
  s.ops = 8000;
  s.update_every = 67;  // 1.5% of operations
  s.zipf = true;
  s.scale = scale;
  return s;
}

ServeTraceSpec ChurnSpec(double scale) {
  ServeTraceSpec s;
  s.dbs = 40;
  s.vertices = 24;
  s.edge_p = 0.12;
  s.ops = 6000;
  s.update_every = 5;  // 20% of operations
  s.zipf = false;
  s.durable = true;
  s.wal_records = 60;
  s.scale = scale;
  return s;
}

// ------------------------------------------------------------ the replay ---

namespace {

class ServeWorkload : public Workload {
 public:
  ServeWorkload(const ServeTraceSpec& spec, const WorkloadConfig& config)
      : spec_(spec), trace_(BuildServeTrace(spec, config.seed)) {
    if (spec_.durable) {
      data_dir_ = config.scratch_dir + "/serve_churn-data";
    }
    for (const ServeOp& op : trace_.ops) {
      cqcs::serve::ServeRequest req;
      if (!op.update) {
        req.query = trace_.query_texts[op.query];
        req.database = DbName(op.db);
        req.task = op.task;
      }
      requests_.push_back(std::move(req));
    }
    // Update payloads are parsed once here; each pass moves in a copy.
    parsed_.resize(trace_.versions.size());
    for (size_t d = 0; d < trace_.versions.size(); ++d) {
      for (const std::string& text : trace_.version_texts[d]) {
        auto s = cqcs::ParseStructure(text);
        if (!s.ok()) {
          parse_error_ = "ParseStructure: " + s.status().ToString();
          return;
        }
        parsed_[d].push_back(*std::move(s));
      }
    }
  }

  ~ServeWorkload() override {
    engine_.reset();
    if (!data_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(data_dir_, ec);
    }
  }

  size_t size() const override { return trace_.ops.size(); }

  void BeforeSetup() override {
    if (!spec_.durable || !parse_error_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(data_dir_, ec);
    std::filesystem::create_directories(data_dir_, ec);
    // The catalog a restart recovers: a snapshot of every database plus a
    // log of later re-registrations, written through the library itself.
    ServeOptions writer_options = Options();
    writer_options.durability.snapshot_every_records = spec_.dbs;
    ServingEngine writer(writer_options);
    writer_error_.clear();
    if (!writer.Open().ok()) writer_error_ = "catalog writer: Open failed";
    for (uint32_t d = 0; d < spec_.dbs && writer_error_.empty(); ++d) {
      if (!writer.UpsertDatabase(DbName(d), parsed_[d][0]).ok()) {
        writer_error_ = "catalog writer: snapshot upsert failed";
      }
    }
    for (uint32_t r = 0; r < spec_.wal_records && writer_error_.empty(); ++r) {
      const uint32_t d = r % spec_.dbs;
      if (!writer.UpsertDatabase(DbName(d), parsed_[d][1 + r / spec_.dbs])
               .ok()) {
        writer_error_ = "catalog writer: log upsert failed";
      }
    }
  }

  bool Setup(std::string* error) override {
    if (!parse_error_.empty()) {
      *error = parse_error_;
      return false;
    }
    engine_ = std::make_unique<ServingEngine>(Options());
    if (spec_.durable) {
      if (!writer_error_.empty()) {
        *error = writer_error_;
        return false;
      }
      cqcs::serve::RecoveryInfo info;
      Status s = engine_->Open(&info);
      if (!s.ok()) {
        *error = "Open: " + s.ToString();
        return false;
      }
      return true;
    }
    for (uint32_t d = 0; d < spec_.dbs; ++d) {
      auto db = cqcs::ParseStructure(trace_.version_texts[d][0]);
      if (!db.ok()) {
        *error = "ParseStructure: " + db.status().ToString();
        return false;
      }
      Status s = engine_->UpsertDatabase(DbName(d), *std::move(db));
      if (!s.ok()) {
        *error = "UpsertDatabase: " + s.ToString();
        return false;
      }
    }
    return true;
  }

  void Prepare(size_t i) override {
    const ServeOp& op = trace_.ops[i];
    if (op.update) pending_ = parsed_[op.db][op.version];
  }

  void Execute(size_t i) override {
    const ServeOp& op = trace_.ops[i];
    if (op.update) {
      update_status_ = engine_->UpsertDatabase(DbName(op.db),
                                               *std::move(pending_));
    } else {
      result_.emplace(engine_->Serve(requests_[i]));
    }
  }

  OpRecord Check(size_t i) override {
    const ServeOp& op = trace_.ops[i];
    OpRecord record;
    if (op.update) {
      record.fingerprint = op.version;
      if (!update_status_.ok()) {
        record.failed = true;
        record.why = "UpsertDatabase: " + update_status_.ToString();
      }
      pending_.reset();
      return record;
    }
    if (!result_.has_value() || !result_->ok()) {
      record.failed = true;
      record.why = "Serve: " + (result_.has_value()
                                    ? result_->status().ToString()
                                    : std::string("no result"));
    } else {
      const EngineResult& r = **result_;
      CheckAnswer(r, trace_.expected[op.expected], &record);
      record.answer = ProtocolAnswer(r);
      record.plan_hit = r.stats.serve.plan_cache_hit;
      record.result_hit = r.stats.serve.result_cache_hit;
    }
    result_.reset();
    return record;
  }

  void Teardown() override { engine_.reset(); }

  std::string Label(size_t i) const override {
    const ServeOp& op = trace_.ops[i];
    if (op.update) return "update";
    const QueryShape& q = trace_.queries[op.query];
    const char* shape = q.atoms.size() == q.vars ? "cycle" : "tree";
    return std::string(cqcs::HomTaskName(op.task)) + " " + shape +
           std::to_string(q.atoms.size());
  }

  const ServingEngine* serving_engine() const override {
    return engine_.get();
  }

 private:
  ServeOptions Options() const {
    ServeOptions o;  // default caches: 512 plan / 4096 result entries
    o.engine.solve.num_threads = 1;
    if (spec_.durable) {
      o.durability.data_dir = data_dir_;
      o.durability.fsync = cqcs::serve::FsyncPolicy::kNever;
      // No snapshot inside a pass: its fsync would time the disk, not the
      // program. The recovered catalog already starts from a snapshot.
      o.durability.snapshot_every_records = 0;
    }
    return o;
  }

  const ServeTraceSpec spec_;
  const ServeTrace trace_;
  std::string data_dir_;
  std::string writer_error_;
  std::vector<cqcs::serve::ServeRequest> requests_;
  std::vector<std::vector<Structure>> parsed_;
  std::string parse_error_;
  std::unique_ptr<ServingEngine> engine_;
  std::optional<Structure> pending_;
  Status update_status_;
  std::optional<Result<EngineResult>> result_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeHot(const WorkloadConfig& config) {
  return std::make_unique<ServeWorkload>(HotSpec(config.scale), config);
}

std::unique_ptr<Workload> MakeServeChurn(const WorkloadConfig& config) {
  return std::make_unique<ServeWorkload>(ChurnSpec(config.scale), config);
}

}  // namespace cqbench
