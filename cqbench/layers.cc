// The traced run (--trace 1): per-layer metrics. Every number comes from a
// call into one layer's public functions, timed from this file, around
// samples of the three traces:
//
//   serve      ServingEngine::Serve / UpsertDatabase / Open and its stats()
//   cq         ParseQuery, HomProblem::SourceAcyclic (GYO), the Acyclic*
//              Yannakakis entry points
//   rel        rel::HashIndex::Build, rel::Semijoin, rel::HashJoinAppend
//   api        HomProblem::From*, and HomEngine::Run minus its stage calls
//   treewidth  SourceDecomposition (min-fill), ValidateFor,
//              SolveViaTreeDecomposition
//   solver     HomProblem::Csp, BacktrackingSolver
//   schaefer   TargetSchaeferClasses, SolveSchaefer
//   core       ParseStructure
//   work_pool  HomEngine::Run at 1, 2 and 4 engine threads
//   hom_tool   the serve_hot sample piped through `hom_tool serve`

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <optional>

#include "api/engine.h"
#include "core/io.h"
#include "cq/acyclic.h"
#include "cq/parser.h"
#include "harness.h"
#include "oneoff_trace.h"
#include "rel/hash_index.h"
#include "rel/ops.h"
#include "rel/table.h"
#include "schaefer/uniform.h"
#include "serve/serving.h"
#include "serve_trace.h"
#include "solver/backtracking.h"
#include "treewidth/hom_dp.h"

extern char** environ;

namespace cqbench {

using cqcs::Backend;
using cqcs::EngineResult;
using cqcs::HomProblem;
using cqcs::HomTask;
using cqcs::Structure;

namespace {

template <typename F>
double TimeUs(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return SecondsSince(t0) * 1e6;
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Checks counted over the whole traced run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first;
  void Add(const OpRecord& r, const std::string& where) {
    ++attempted;
    if (!r.failed) return;
    ++failed;
    if (first.empty()) first = where + ": " + r.why;
  }
};

// ------------------------------------------------------------------ serve ---

struct ServeSample {
  std::vector<double> us;  ///< per-op call time
  std::vector<OpRecord> records;
  std::vector<bool> update;
  double setup_s = 0;
  double total_s = 0;  ///< sum of per-op times (+ counter reads if traced)
  cqcs::serve::ServeStats stats;
};

/// One pass over `w` from fresh state. Traced passes also read the
/// engine's counters after every call, inside the timed span.
ServeSample ReplayServe(Workload& w, bool traced, Tally* tally,
                        const char* name) {
  ServeSample s;
  w.BeforeSetup();
  std::string error;
  const Clock::time_point t0 = Clock::now();
  const bool ok = w.Setup(&error);
  s.setup_s = SecondsSince(t0);
  if (!ok) {
    OpRecord r;
    r.failed = true;
    r.why = "setup: " + error;
    tally->Add(r, name);
    return s;
  }
  for (size_t i = 0; i < w.size(); ++i) {
    w.Prepare(i);
    const Clock::time_point c0 = Clock::now();
    w.Execute(i);
    const double call_s = SecondsSince(c0);
    if (traced) s.stats = w.serving_engine()->stats();
    const double span_s = SecondsSince(c0);
    OpRecord r = w.Check(i);
    tally->Add(r, name);
    s.us.push_back(call_s * 1e6);
    s.total_s += span_s;
    s.update.push_back(w.Label(i) == "update");
    s.records.push_back(std::move(r));
  }
  s.stats = w.serving_engine()->stats();
  w.Teardown();
  return s;
}

// ----------------------------------------------------------------- oneoff ---

struct StageTimes {
  std::vector<double> compile_us, unattributed_us, gyo_us, yannakakis_us,
      minfill_ms, validate_ms, dp_ms, csp_build_us, search_ms, classify_us,
      schaefer_solve_us, parse_structure_ms;
  uint64_t semijoins = 0, rows_pruned = 0, rows_materialized = 0;
  uint64_t acyclic_runs = 0;
  int width = -1;
  uint64_t table_rows = 0, treewidth_runs = 0;
  uint64_t nodes = 0, search_runs = 0;
  double search_s = 0;
  double untraced_s = 0, traced_s = 0;
};

struct ParsedOp {
  std::optional<Structure> left_s, right_s;
  std::optional<cqcs::ConjunctiveQuery> left_q, right_q;
};

bool ParseOp(const OneoffOp& op, ParsedOp* p, StageTimes* t) {
  auto structure = [&](const std::string& text,
                       std::optional<Structure>* out) {
    const Clock::time_point t0 = Clock::now();
    auto s = cqcs::ParseStructure(text);
    t->parse_structure_ms.push_back(SecondsSince(t0) * 1e3);
    if (s.ok()) out->emplace(*std::move(s));
    return s.ok();
  };
  if (op.shape == Shape::kContainment) {
    auto q1 = cqcs::ParseQuery(op.left);
    if (!q1.ok()) return false;
    auto q2 = cqcs::ParseQuery(op.right, q1->vocabulary());
    if (!q2.ok()) return false;
    p->left_q.emplace(*std::move(q1));
    p->right_q.emplace(*std::move(q2));
    return true;
  }
  if (!structure(op.right, &p->right_s)) return false;
  if (op.shape == Shape::kQuery) {
    auto q = cqcs::ParseQuery(op.left, p->right_s->vocabulary());
    if (!q.ok()) return false;
    p->left_q.emplace(*std::move(q));
    return true;
  }
  return structure(op.left, &p->left_s);
}

cqcs::Result<HomProblem> Compile(const OneoffOp& op, const ParsedOp& p) {
  switch (op.shape) {
    case Shape::kStructures:
      return HomProblem::FromStructures(*p.left_s, *p.right_s);
    case Shape::kQuery:
      return HomProblem::FromQuery(*p.left_q, *p.right_s);
    case Shape::kContainment:
      return HomProblem::FromContainment(*p.left_q, *p.right_q);
  }
  return cqcs::Status::Internal("unknown shape");
}

/// Replays the routing stages and the backend `chosen` ran for this
/// operation on a fresh problem, one public call per stage. Returns the
/// summed stage time (µs).
double RunStages(const OneoffOp& op, const HomProblem& problem, Backend chosen,
                 StageTimes* t) {
  const Structure& a = problem.source();
  const Structure& b = problem.target();
  const bool decide_like =
      op.task == HomTask::kDecide || op.task == HomTask::kWitness;
  double sum = 0;
  auto stage = [&sum](std::vector<double>* out, double scale, auto&& f) {
    const double us = TimeUs(f);
    sum += us;
    if (out != nullptr) out->push_back(us * scale);
    return us;
  };
  if (decide_like) {
    stage(&t->classify_us, 1, [&] { (void)problem.TargetSchaeferClasses(); });
  }
  if (!decide_like || chosen != Backend::kSchaefer) {
    stage(&t->gyo_us, 1, [&] { (void)problem.SourceAcyclic(); });
  }
  if (decide_like &&
      (chosen == Backend::kTreewidth || chosen == Backend::kUniform) &&
      !problem.SourceAcyclic()) {
    // Reported for the treewidth route only; a search-routed op pays it
    // too (the gate needs the width), but its sources are tiny.
    stage(chosen == Backend::kTreewidth ? &t->minfill_ms : nullptr, 1e-3,
          [&] { (void)problem.SourceDecomposition(); });
  }
  switch (chosen) {
    case Backend::kSchaefer:
      stage(&t->schaefer_solve_us, 1, [&] {
        (void)cqcs::SolveSchaefer(a, b, cqcs::SchaeferAlgorithm::kAuto);
      });
      break;
    case Backend::kAcyclic: {
      const cqcs::ConjunctiveQuery& q = problem.SourceCanonicalQuery();
      cqcs::YannakakisStats ys;
      std::vector<cqcs::VarId> proj(problem.projection().begin(),
                                    problem.projection().end());
      stage(&t->yannakakis_us, 1, [&] {
        switch (op.task) {
          case HomTask::kDecide:
            (void)cqcs::EvaluateBooleanAcyclic(q, b, &ys);
            break;
          case HomTask::kWitness:
            (void)cqcs::AcyclicWitness(q, b, &ys);
            break;
          case HomTask::kCount:
            (void)cqcs::AcyclicCount(q, b, SIZE_MAX, &ys);
            break;
          case HomTask::kEnumerate:
          case HomTask::kProject:
            (void)cqcs::AcyclicProject(q, b, proj, SIZE_MAX, &ys);
            break;
        }
      });
      t->semijoins += ys.semijoins;
      t->rows_pruned += ys.rows_pruned;
      t->rows_materialized += ys.rows_materialized;
      ++t->acyclic_runs;
      break;
    }
    case Backend::kTreewidth: {
      const cqcs::TreeDecomposition& dec = problem.SourceDecomposition();
      const double validate_us = stage(&t->validate_ms, 1e-3, [&] {
        (void)dec.ValidateFor(a);
      });
      cqcs::TreewidthSolveStats ts;
      // SolveViaTreeDecomposition validates first; the DP is the rest.
      const double dp_us = stage(nullptr, 1, [&] {
        (void)cqcs::SolveViaTreeDecomposition(a, b, dec, &ts);
      });
      sum -= validate_us;
      t->dp_ms.push_back(std::max(0.0, dp_us - validate_us) * 1e-3);
      t->width = std::max(t->width, ts.width);
      t->table_rows += ts.table_rows;
      ++t->treewidth_runs;
      break;
    }
    case Backend::kUniform: {
      stage(&t->csp_build_us, 1, [&] { (void)problem.Csp(); });
      cqcs::BacktrackingSolver solver(&problem.Csp());
      cqcs::SolveStats st;
      const double us = stage(nullptr, 1, [&] {
        switch (op.task) {
          case HomTask::kDecide:
          case HomTask::kWitness:
            (void)solver.Solve(&st);
            break;
          case HomTask::kCount:
            (void)solver.CountSolutions(SIZE_MAX, &st);
            break;
          case HomTask::kEnumerate:
          case HomTask::kProject:
            (void)solver.EnumerateProjections(problem.projection(), SIZE_MAX,
                                              &st);
            break;
        }
      });
      t->search_ms.push_back(us * 1e-3);
      t->search_s += us * 1e-6;
      t->nodes += st.nodes;
      ++t->search_runs;
      break;
    }
    case Backend::kAuto:
      break;
  }
  return sum;
}

StageTimes TraceOneoff(uint64_t seed, Tally* tally) {
  StageTimes t;
  const std::vector<OneoffOp> ops = BuildOneoffTrace(seed, 0.15);
  const cqcs::HomEngine engine;
  for (const OneoffOp& op : ops) {
    ParsedOp p;
    if (!ParseOp(op, &p, &t)) {
      OpRecord r;
      r.failed = true;
      r.why = "input does not parse";
      tally->Add(r, FamilyName(op.family));
      continue;
    }
    // Untraced: one compile + Run, as the oneoff workload times it.
    std::optional<cqcs::Result<EngineResult>> run;
    std::optional<HomProblem> keep;
    const double run_us = TimeUs([&] {
      auto problem = Compile(op, p);
      if (!problem.ok()) {
        run.emplace(problem.status());
        return;
      }
      run.emplace(engine.Run(*problem, op.task));
      keep.emplace(*std::move(problem));
    });
    keep.reset();
    OpRecord r;
    if (!run->ok()) {
      r.failed = true;
      r.why = run->status().ToString();
      tally->Add(r, FamilyName(op.family));
      continue;
    }
    CheckAnswer(**run, op.want, &r);
    tally->Add(r, FamilyName(op.family));
    t.untraced_s += run_us * 1e-6;

    // Traced: the same work as one public call per stage, on a fresh
    // problem.
    const Clock::time_point traced0 = Clock::now();
    std::optional<cqcs::Result<HomProblem>> fresh;
    const double compile_us = TimeUs([&] { fresh.emplace(Compile(op, p)); });
    if (!fresh->ok()) continue;
    const double stages_us =
        RunStages(op, **fresh, (*run)->explain.chosen, &t);
    t.traced_s += SecondsSince(traced0);
    t.compile_us.push_back(compile_us);
    t.unattributed_us.push_back(run_us - compile_us - stages_us);
  }
  return t;
}

// -------------------------------------------------------------------- rel ---

struct RelTimes {
  double semijoin_ns = 0, hashjoin_ns = 0, build_ns = 0;
};

/// The rel/ kernel primitives on the edge table of a partial 2-tree from
/// the oneoff treewidth family's generator, at 20000 vertices: build an
/// index on column 0, semijoin E(x, y) against it on y, and join E ⋈ E.
/// Best of five; ns per indexed row (build) or per probing row.
RelTimes TraceRel(uint64_t seed) {
  Rng rng(seed ^ 0x5eedULL);
  const Facts f = PartialKTree(rng, 20000, 2, 0.85);
  cqcs::rel::Table edges(2);
  const std::vector<uint32_t>& cells = f.rels[0].cells;
  for (size_t i = 0; i + 1 < cells.size(); i += 2) {
    edges.AppendRow(std::span<const uint32_t>(&cells[i], 2));
  }
  const uint32_t rows = static_cast<uint32_t>(edges.row_count());
  const std::vector<uint32_t> left_key{1};
  const std::vector<uint32_t> extra{1};
  double build = 1e300, semi = 1e300, join = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    cqcs::rel::HashIndex index;
    build = std::min(build, TimeUs([&] {
      index.Build(edges.data(), 2, rows, {0});
    }));
    cqcs::rel::Table left = edges;
    semi = std::min(semi, TimeUs([&] {
      (void)cqcs::rel::Semijoin(left, left_key, edges, index);
    }));
    cqcs::rel::Table out(3);
    join = std::min(join, TimeUs([&] {
      cqcs::rel::HashJoinAppend(edges, left_key, edges, index, extra, &out);
    }));
  }
  return {semi * 1e3 / rows, join * 1e3 / rows, build * 1e3 / rows};
}

// -------------------------------------------------------------- work_pool ---

/// Engine time at 1 thread ÷ engine time at `threads`, best of three runs
/// each, on one compiled (and warmed) problem.
double Speedup(const HomProblem& problem, HomTask task, Backend backend,
               unsigned threads) {
  auto best = [&](unsigned n) {
    cqcs::EngineOptions o;
    o.backend = backend;
    o.solve.num_threads = n;
    const cqcs::HomEngine engine(o);
    double b = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      b = std::min(b, TimeUs([&] { (void)engine.Run(problem, task); }));
    }
    return b;
  };
  return Ratio(best(1), best(threads));
}

struct PoolProblem {
  const char* family;
  std::optional<HomProblem> problem;
  HomTask task;
  Backend backend;
};

std::vector<PoolProblem> PoolProblems(uint64_t seed) {
  Rng rng(seed ^ 0x9001ULL);
  std::vector<PoolProblem> out;
  {  // acyclic: count of an 8000-atom tree CQ into G(12, 0.3)
    const Digraph g = RandomDigraph(rng, 12, 0.3);
    auto db = cqcs::ParseStructure(g.ToFacts().Text());
    const QueryShape q = TreeQuery(rng, 8000, {0}, 3);
    if (db.ok()) {
      auto cq = cqcs::ParseQuery(q.Text(), db->vocabulary());
      if (cq.ok()) {
        auto p = HomProblem::FromQuery(*cq, *db);
        if (p.ok()) {
          out.push_back({"acyclic", *std::move(p), HomTask::kCount,
                         Backend::kAcyclic});
        }
      }
    }
  }
  {  // treewidth: a 3000-vertex partial 2-tree into K3
    auto a = cqcs::ParseStructure(PartialKTree(rng, 3000, 2, 0.85).Text());
    auto b = cqcs::ParseStructure(Complete(3).Text());
    if (a.ok() && b.ok()) {
      auto p = HomProblem::FromStructures(*a, *b);
      if (p.ok()) {
        out.push_back({"treewidth", *std::move(p), HomTask::kDecide,
                       Backend::kTreewidth});
      }
    }
  }
  {  // search: K6 refuted in a dense 5-partite graph on 18 vertices
    Digraph g(18);
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    for (uint32_t u = 0; u < 18; ++u) {
      for (uint32_t v = u + 1; v < 18; ++v) {
        if (u % 5 != v % 5) pairs.emplace_back(u, v);
      }
    }
    for (auto [u, v] : SamplePairs(rng, std::move(pairs), 0.9)) {
      g.AddSym(u, v);
    }
    auto a = cqcs::ParseStructure(Complete(6).Text());
    auto b = cqcs::ParseStructure(g.ToFacts().Text());
    if (a.ok() && b.ok()) {
      auto p = HomProblem::FromStructures(*a, *b);
      if (p.ok()) {
        out.push_back({"search", *std::move(p), HomTask::kDecide,
                       Backend::kUniform});
      }
    }
  }
  return out;
}

// --------------------------------------------------------------- hom_tool ---

std::string OneLine(std::string text) {
  while (!text.empty() && text.back() == '\n') text.pop_back();
  std::replace(text.begin(), text.end(), '\n', ';');
  return text;
}

/// Pipes the serve_hot sample through `hom_tool serve` and compares its
/// `ok` lines with the in-process records. Returns the child's wall time
/// in seconds, or a negative value when it could not run.
double ProtocolCheck(const Args& args, const ServeTrace& trace,
                     const ServeSample& in_process, Tally* tally) {
  const std::string in_path = args.scratch + "/protocol.in";
  const std::string out_path = args.scratch + "/protocol.out";
  {
    std::ofstream in(in_path);
    for (size_t d = 0; d < trace.versions.size(); ++d) {
      in << "db " << DbName(static_cast<uint32_t>(d)) << ' '
         << OneLine(trace.version_texts[d][0]) << '\n';
    }
    for (size_t q = 0; q < trace.query_texts.size(); ++q) {
      in << "query q" << q << ' ' << trace.query_texts[q] << '\n';
    }
    for (const ServeOp& op : trace.ops) {
      if (op.update) {
        in << "db " << DbName(op.db) << ' '
           << OneLine(trace.version_texts[op.db][op.version]) << '\n';
      } else {
        in << "run " << cqcs::HomTaskName(op.task) << " q" << op.query << ' '
           << DbName(op.db) << '\n';
      }
    }
    in << "quit\n";
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, in_path.c_str(), O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
  std::string tool = args.hom_tool;
  char serve_arg[] = "serve";
  char* argv[] = {tool.data(), serve_arg, nullptr};
  pid_t pid = 0;
  const Clock::time_point t0 = Clock::now();
  const int rc = posix_spawn(&pid, tool.c_str(), &actions, nullptr, argv,
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  OpRecord spawn;
  if (rc != 0) {
    spawn.failed = true;
    spawn.why = "cannot start " + tool;
    tally->Add(spawn, "hom_tool");
    return -1;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const double wall = SecondsSince(t0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    spawn.failed = true;
    spawn.why = "hom_tool serve did not exit 0";
    tally->Add(spawn, "hom_tool");
    return -1;
  }

  std::ifstream out(out_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(out, line);) lines.push_back(line);
  const size_t skip = trace.versions.size() + trace.query_texts.size();
  for (size_t i = 0; i < trace.ops.size(); ++i) {
    const std::string got = skip + i < lines.size() ? lines[skip + i] : "";
    const std::string want =
        trace.ops[i].update ? "ok db " + DbName(trace.ops[i].db)
                            : ProtocolLine(in_process.records[i]);
    OpRecord r;
    if (!ProtocolLineMatches(got, want)) {
      r.failed = true;
      r.why = "line '" + got + "', in-process '" + want + "'";
    }
    tally->Add(r, "hom_tool op " + std::to_string(i));
  }
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
  return wall;
}

}  // namespace

int RunTraced(const Args& args) {
  Tally tally;
  std::vector<Metric> m;
  WorkloadConfig config;
  config.seed = args.seed;
  config.scratch_dir = args.scratch;
  double untraced_s = 0, traced_s = 0;  // for the named workload

  // -- serve_hot sample: hits, hit ratios, and the protocol cross-check.
  config.scale = 0.25;
  std::unique_ptr<Workload> hot = MakeServeHot(config);
  const ServeSample hot_plain = ReplayServe(*hot, false, &tally, "serve_hot");
  const ServeSample hot_traced = ReplayServe(*hot, true, &tally, "serve_hot");
  std::vector<double> hit_us;
  for (size_t i = 0; i < hot_traced.records.size(); ++i) {
    if (hot_traced.records[i].result_hit) hit_us.push_back(hot_traced.us[i]);
  }
  const auto& hs = hot_traced.stats;
  m.push_back({"serve.hit_us", Median(hit_us), "us"});
  m.push_back({"serve.result_hit_ratio",
               Ratio(hs.result_hits, hs.result_hits + hs.result_misses),
               "ratio"});
  m.push_back({"serve.result_lookups",
               static_cast<double>(hs.result_hits + hs.result_misses),
               "count"});
  m.push_back({"serve.plan_hit_ratio",
               Ratio(hs.plan_hits, hs.plan_hits + hs.plan_misses), "ratio"});
  m.push_back({"serve.plan_lookups",
               static_cast<double>(hs.plan_hits + hs.plan_misses), "count"});
  if (args.workload == "serve_hot") {
    untraced_s = hot_plain.total_s;
    traced_s = hot_traced.total_s;
  }

  // -- serve_churn sample: misses, updates, invalidation, recovery.
  config.scale = 0.5;
  std::unique_ptr<Workload> churn = MakeServeChurn(config);
  const ServeSample churn_plain =
      ReplayServe(*churn, false, &tally, "serve_churn");
  const ServeSample churn_traced =
      ReplayServe(*churn, true, &tally, "serve_churn");
  churn.reset();  // removes its data dir
  std::vector<double> miss_us, update_us;
  for (size_t i = 0; i < churn_traced.records.size(); ++i) {
    if (churn_traced.update[i]) {
      update_us.push_back(churn_traced.us[i]);
    } else if (!churn_traced.records[i].result_hit) {
      miss_us.push_back(churn_traced.us[i]);
    }
  }
  const auto& cs = churn_traced.stats;
  m.push_back({"serve.miss_us", Median(miss_us), "us"});
  m.push_back({"serve.update_us", Median(update_us), "us"});
  m.push_back({"serve.invalidated_per_update",
               Ratio(static_cast<double>(cs.invalidated_entries),
                     static_cast<double>(cs.updates)),
               "count"});
  m.push_back({"serve.recovery_ms", churn_traced.setup_s * 1e3, "ms"});
  m.push_back({"serve.records_replayed",
               static_cast<double>(cs.records_replayed), "count"});
  if (args.workload == "serve_churn") {
    untraced_s = churn_plain.total_s;
    traced_s = churn_traced.total_s;
  }

  // -- cq.parse_us: ParseQuery over the serve_hot query pool.
  const ServeTrace hot_trace = BuildServeTrace(HotSpec(0.25), args.seed);
  {
    auto db = cqcs::ParseStructure(hot_trace.version_texts[0][0]);
    std::vector<double> parse_us;
    for (const std::string& text : hot_trace.query_texts) {
      double best = 1e300;
      for (int rep = 0; rep < 5 && db.ok(); ++rep) {
        best = std::min(best, TimeUs([&] {
          (void)cqcs::ParseQuery(text, db->vocabulary());
        }));
      }
      parse_us.push_back(best);
    }
    m.push_back({"cq.parse_us", Median(parse_us), "us"});
  }

  // -- oneoff sample split into stages.
  const StageTimes st = TraceOneoff(args.seed, &tally);
  if (args.workload == "oneoff") {
    untraced_s = st.untraced_s;
    traced_s = st.traced_s;
  }
  m.push_back({"cq.gyo_us", Median(st.gyo_us), "us"});
  m.push_back({"cq.yannakakis_us", Median(st.yannakakis_us), "us"});
  m.push_back({"cq.semijoins",
               Ratio(static_cast<double>(st.semijoins),
                     static_cast<double>(st.acyclic_runs)),
               "count"});
  m.push_back({"cq.rows_pruned_per_row",
               Ratio(static_cast<double>(st.rows_pruned),
                     static_cast<double>(st.rows_materialized)),
               "ratio"});
  const RelTimes rel = TraceRel(args.seed);
  m.push_back({"rel.semijoin_ns_per_row", rel.semijoin_ns, "ns/row"});
  m.push_back({"rel.hashjoin_ns_per_row", rel.hashjoin_ns, "ns/row"});
  m.push_back({"rel.index_build_ns_per_row", rel.build_ns, "ns/row"});
  m.push_back({"api.compile_us", Median(st.compile_us), "us"});
  m.push_back({"api.unattributed_us", Median(st.unattributed_us), "us"});
  m.push_back({"treewidth.minfill_ms", Median(st.minfill_ms), "ms"});
  m.push_back({"treewidth.validate_ms", Median(st.validate_ms), "ms"});
  m.push_back({"treewidth.dp_ms", Median(st.dp_ms), "ms"});
  m.push_back({"treewidth.width", static_cast<double>(st.width), "count"});
  m.push_back({"treewidth.table_rows",
               Ratio(static_cast<double>(st.table_rows),
                     static_cast<double>(st.treewidth_runs)),
               "count"});
  m.push_back({"solver.csp_build_us", Median(st.csp_build_us), "us"});
  m.push_back({"solver.search_ms", Median(st.search_ms), "ms"});
  m.push_back({"solver.nodes",
               Ratio(static_cast<double>(st.nodes),
                     static_cast<double>(st.search_runs)),
               "count"});
  m.push_back({"solver.nodes_per_s",
               Ratio(static_cast<double>(st.nodes), st.search_s), "1/s"});
  m.push_back({"schaefer.classify_us", Median(st.classify_us), "us"});
  m.push_back({"schaefer.solve_us", Median(st.schaefer_solve_us), "us"});
  m.push_back({"core.parse_structure_ms", Median(st.parse_structure_ms),
               "ms"});

  // -- work_pool: engine speedups at 2 and 4 threads.
  for (PoolProblem& p : PoolProblems(args.seed)) {
    const cqcs::HomEngine warm;
    (void)warm.Run(*p.problem, p.task);  // builds the lazy artifacts
    const std::string prefix = std::string("work_pool.") + p.family;
    m.push_back({prefix + ".speedup_2t",
                 Speedup(*p.problem, p.task, p.backend, 2), "x"});
    m.push_back({prefix + ".speedup_4t",
                 Speedup(*p.problem, p.task, p.backend, 4), "x"});
  }

  m.push_back({"trace.overhead_ratio", Ratio(traced_s, untraced_s), "ratio"});

  // -- hom_tool: the serve_hot sample through the line protocol.
  const double wall = ProtocolCheck(args, hot_trace, hot_plain, &tally);
  double in_process_s = hot_plain.setup_s;
  for (double us : hot_plain.us) in_process_s += us * 1e-6;
  m.push_back({"hom_tool.protocol_us_per_op",
               wall < 0 ? 0
                        : (wall - in_process_s) * 1e6 /
                              static_cast<double>(hot_trace.ops.size()),
               "us"});

  if (!tally.first.empty()) {
    std::fprintf(stderr, "cqbench: first failure: %s\n", tally.first.c_str());
  }
  PrintResult(tally.failed == 0, tally.attempted, tally.failed, m);
  return 0;
}

}  // namespace cqbench
