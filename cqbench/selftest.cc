// The benchmark's own test (--selftest): every check must reject a
// deliberately corrupted answer, and accept the library's real answers on
// small samples of the three workloads.

#include <cstdio>

#include "api/engine.h"
#include "core/io.h"
#include "cq/parser.h"
#include "harness.h"
#include "oneoff_trace.h"

namespace cqbench {

using cqcs::EngineResult;
using cqcs::HomProblem;
using cqcs::HomTask;

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++failures;
}

bool Rejected(const EngineResult& r, const Expected& want) {
  OpRecord record;
  CheckAnswer(r, want, &record);
  return record.failed;
}

/// Runs q over g through the engine (kAuto, one thread).
EngineResult Run(const QueryShape& q, const Digraph& g, HomTask task) {
  auto db = cqcs::ParseStructure(g.ToFacts().Text());
  auto cq = cqcs::ParseQuery(q.Text(), db->vocabulary());
  auto problem = HomProblem::FromQuery(*cq, *db);
  return *cqcs::HomEngine().Run(*problem, task);
}

/// A workload whose answers or cache flags change after the first pass.
class FlakyWorkload : public Workload {
 public:
  explicit FlakyWorkload(bool flip_flag) : flip_flag_(flip_flag) {}
  size_t size() const override { return 4; }
  bool Setup(std::string*) override { return true; }
  void Execute(size_t) override {}
  OpRecord Check(size_t i) override {
    OpRecord r;
    r.fingerprint = i;
    if (i == 3 && passes_ > 0) {
      if (flip_flag_) {
        r.result_hit = true;
      } else {
        r.fingerprint = 99;
      }
    }
    return r;
  }
  void Teardown() override { ++passes_; }
  std::string Label(size_t) const override { return "flaky"; }

 private:
  bool flip_flag_;
  int passes_ = 0;
};

void CorruptedAnswersAreRejected() {
  Rng rng(7);
  const Digraph g = RandomDigraph(rng, 16, 0.2);

  // count: the chain of length 3 counts sum(A^3).
  const QueryShape chain = ChainQuery(3, {0, 3});
  Expected count;
  count.task = HomTask::kCount;
  count.count = OracleCount(chain, g);
  EngineResult r = Run(chain, g, HomTask::kCount);
  Expect(!Rejected(r, count), "count: the engine's count matches sum(A^L)");
  r.count += 1;
  Expect(Rejected(r, count), "count: a count off by one is rejected");

  // decide: flip the answer; an "unknown" is a failure too.
  Expected decide;
  decide.task = HomTask::kDecide;
  decide.yes = count.count > 0;
  r = Run(chain, g, HomTask::kDecide);
  Expect(!Rejected(r, decide), "decide: the engine's answer is accepted");
  r.decided = !r.decided;
  Expect(Rejected(r, decide), "decide: a flipped answer is rejected");
  r.decided = false;
  r.stats.search.limit_hit = true;
  Expect(Rejected(r, decide), "decide: an unknown answer is rejected");

  // project: reachability pairs; drop a row, or change one value.
  const auto rows = OracleProject(chain, g);
  Expected project;
  project.task = HomTask::kProject;
  project.rows = rows.size();
  project.rows_digest = RowsDigest(rows);
  r = Run(chain, g, HomTask::kProject);
  Expect(!Rejected(r, project), "project: the engine's rows match");
  EngineResult dropped = r;
  dropped.rows.pop_back();
  Expect(Rejected(dropped, project), "project: a missing row is rejected");
  EngineResult changed = r;
  changed.rows[0][0] = (changed.rows[0][0] + 1) % g.n;
  Expect(Rejected(changed, project), "project: a changed row is rejected");

  // cycles: trace(A^m) against the engine's count.
  const QueryShape c4 = CycleQuery(4);
  Expected cyc;
  cyc.task = HomTask::kCount;
  cyc.count = OracleCount(c4, g);
  Expect(!Rejected(Run(c4, g, HomTask::kCount), cyc),
         "count: the engine's 4-cycle count matches trace(A^4)");

  // witness: a homomorphism into K3; collapse one edge.
  const Facts a = PartialKTree(rng, 40, 2, 0.85);
  const Facts b = Complete(3);
  auto pa = cqcs::ParseStructure(a.Text());
  auto pb = cqcs::ParseStructure(b.Text());
  auto problem = HomProblem::FromStructures(*pa, *pb);
  EngineResult w = *cqcs::HomEngine().Run(*problem, HomTask::kWitness);
  Expected witness;
  witness.task = HomTask::kWitness;
  witness.yes = true;
  witness.source = &a;
  witness.target = &b;
  Expect(!Rejected(w, witness), "witness: the engine's witness verifies");
  const uint32_t u = a.rels[0].cells[0], v = a.rels[0].cells[1];
  (*w.witness)[u] = (*w.witness)[v];  // K3 has no loops
  Expect(Rejected(w, witness), "witness: a broken tuple is rejected");
  w.witness.reset();
  Expect(Rejected(w, witness), "witness: yes without a witness is rejected");

  // Stale cache: the answer for the old database version disagrees with
  // the expectation recomputed for the new one.
  Digraph g2 = g;
  for (uint32_t x = 0; x < g2.n; ++x) g2.Add(x, (x + 1) % g2.n);
  Expected fresh;
  fresh.task = HomTask::kCount;
  fresh.count = OracleCount(chain, g2);
  Expect(fresh.count != count.count &&
             Rejected(Run(chain, g, HomTask::kCount), fresh),
         "versions: an answer from the old database version is rejected");

  // Determinism across passes: answers and cache flags.
  FlakyWorkload answer_flip(false), flag_flip(true);
  Expect(!ReplayPasses(answer_flip, 0, 2).nondeterminism.empty(),
         "determinism: an answer that changes between passes is caught");
  Expect(!ReplayPasses(flag_flip, 0, 2).nondeterminism.empty(),
         "determinism: a cache flag that changes between passes is caught");

  // Protocol cross-check.
  OpRecord served;
  served.answer = "count=12";
  served.plan_hit = true;
  const std::string want = ProtocolLine(served);
  Expect(ProtocolLineMatches(
             "ok count=12 backend=acyclic plan_hit=1 result_hit=0", want),
         "protocol: a matching line is accepted");
  Expect(!ProtocolLineMatches(
             "ok count=13 backend=acyclic plan_hit=1 result_hit=0", want),
         "protocol: a different answer is rejected");
  Expect(!ProtocolLineMatches(
             "ok count=12 backend=acyclic plan_hit=1 result_hit=1", want),
         "protocol: a different cache flag is rejected");
  Expect(!ProtocolLineMatches("error: no query named q1", want),
         "protocol: an error line is rejected");
}

void SamplesPass(const char* name, double scale) {
  WorkloadConfig config;
  config.seed = 3;
  config.scale = scale;
  config.scratch_dir = ".";
  std::unique_ptr<Workload> w = MakeWorkload(name, config);
  const Replay r = ReplayPasses(*w, 0, 2);
  if (!r.first_failure.empty()) {
    std::printf("  %s: %s\n", name, r.first_failure.c_str());
  }
  const std::string what = std::string(name) +
                           ": a small sample passes every check twice";
  Expect(r.error.empty() && r.failed == 0 && r.nondeterminism.empty() &&
             r.attempted == 2 * w->size(),
         what.c_str());
}

}  // namespace

int RunSelfTest() {
  CorruptedAnswersAreRejected();
  SamplesPass("serve_hot", 0.05);
  SamplesPass("serve_churn", 0.05);
  SamplesPass("oneoff", 0.05);
  std::printf("%s: %d failure(s)\n", failures == 0 ? "ok" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace cqbench
