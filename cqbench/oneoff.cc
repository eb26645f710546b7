// oneoff: cold one-off evaluation and containment of large inputs through
// HomEngine::Run with Backend::kAuto. Each operation compiles its own
// HomProblem from freshly parsed inputs.

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/io.h"
#include "cq/parser.h"
#include "oneoff_trace.h"

namespace cqbench {

using cqcs::ConjunctiveQuery;
using cqcs::EngineResult;
using cqcs::HomProblem;
using cqcs::HomTask;
using cqcs::Result;
using cqcs::Structure;

const char* FamilyName(Family f) {
  switch (f) {
    case Family::kAcyclic: return "acyclic";
    case Family::kTreewidth: return "treewidth";
    case Family::kContainment: return "containment";
    case Family::kSchaefer: return "schaefer";
    case Family::kCycleCount: return "cycle_count";
    case Family::kClique: return "clique";
  }
  return "?";
}

// ------------------------------------------------------------ generators ---

Facts Complete(uint32_t n) {
  Digraph g(n);
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t v = u + 1; v < n; ++v) g.AddSym(u, v);
  }
  return g.ToFacts();
}

Facts PartialKTree(Rng& rng, uint32_t n, uint32_t k, double keep) {
  Facts f;
  f.universe = n;
  Facts::Rel& e = f.AddRel("E", 2);
  auto edge = [&](uint32_t u, uint32_t v) {
    if (rng.Coin(0.5)) std::swap(u, v);
    e.cells.push_back(u);
    e.cells.push_back(v);
  };
  std::vector<std::vector<uint32_t>> cliques;
  for (uint32_t u = 0; u <= k; ++u) {
    for (uint32_t v = u + 1; v <= k; ++v) edge(u, v);
    std::vector<uint32_t> c;
    for (uint32_t w = 0; w <= k; ++w) {
      if (w != u) c.push_back(w);
    }
    cliques.push_back(std::move(c));
  }
  for (uint32_t v = k + 1; v < n; ++v) {
    const std::vector<uint32_t> c =
        cliques[rng.Below(static_cast<uint32_t>(cliques.size()))];
    for (uint32_t u : c) {
      if (rng.Coin(keep)) edge(u, v);
    }
    for (size_t j = 0; j < c.size(); ++j) {
      std::vector<uint32_t> next = c;
      next[j] = v;
      cliques.push_back(std::move(next));
    }
  }
  return f;
}

namespace {

/// Complete bipartite symmetric graph K_{m,m}.
Facts CompleteBipartite(uint32_t m) {
  Digraph g(2 * m);
  for (uint32_t u = 0; u < m; ++u) {
    for (uint32_t v = m; v < 2 * m; ++v) g.AddSym(u, v);
  }
  return g.ToFacts();
}

/// A random query over E whose atoms all point forward (a DAG), connected
/// through a spanning tree, with `extra` more forward atoms.
QueryShape ForwardDag(Rng& rng, uint32_t vars, uint32_t extra) {
  QueryShape q;
  q.vars = vars;
  for (uint32_t v = 1; v < vars; ++v) {
    const uint32_t lo = v > 6 ? v - 6 : 0;
    q.atoms.emplace_back(lo + rng.Below(v - lo), v);
  }
  for (uint32_t i = 0; i < extra; ++i) {
    const uint32_t a = rng.Below(vars - 1);
    const uint32_t b = a + 1 + rng.Below(std::min<uint32_t>(vars - a - 1, 12));
    q.atoms.emplace_back(a, b);
  }
  q.head = {0};
  return q;
}

std::string RenamedText(const QueryShape& q, const std::string& var) {
  std::string out = "Q(";
  for (size_t i = 0; i < q.head.size(); ++i) {
    out += (i > 0 ? ", " : "") + var + std::to_string(q.head[i]);
  }
  out += ") :- ";
  for (size_t i = 0; i < q.atoms.size(); ++i) {
    out += (i > 0 ? ", " : "") + std::string("E(") + var +
           std::to_string(q.atoms[i].first) + ", " + var +
           std::to_string(q.atoms[i].second) + ")";
  }
  return out + ".";
}

/// The first `atoms` atoms of a breadth-first spanning tree of q's Gaifman
/// graph from variable 0, renumbered in visit order (0 stays 0).
QueryShape SpanningPrefix(const QueryShape& q, uint32_t atoms) {
  std::vector<std::vector<std::pair<uint32_t, size_t>>> nbrs(q.vars);
  for (size_t i = 0; i < q.atoms.size(); ++i) {
    nbrs[q.atoms[i].first].push_back({q.atoms[i].second, i});
    nbrs[q.atoms[i].second].push_back({q.atoms[i].first, i});
  }
  std::vector<uint32_t> id(q.vars, UINT32_MAX);
  std::vector<uint32_t> order{0};
  id[0] = 0;
  QueryShape out;
  out.head = {0};
  for (size_t i = 0; i < order.size() && out.atoms.size() < atoms; ++i) {
    for (auto [w, a] : nbrs[order[i]]) {
      if (id[w] != UINT32_MAX || out.atoms.size() >= atoms) continue;
      id[w] = static_cast<uint32_t>(order.size());
      order.push_back(w);
      out.atoms.emplace_back(id[q.atoms[a].first], id[q.atoms[a].second]);
    }
  }
  out.vars = static_cast<uint32_t>(order.size());
  return out;
}

struct SchaeferInstance {
  Facts a, b;
  bool yes = false;
};

/// Boolean target in one Schaefer class with a planted source instance.
/// variant 0: "not equal" (affine + bijunctive), 1: Horn (x∧y→z with
/// constants), 2: 2-SAT (x∨y, x→y with constants). A "no" instance adds a
/// small contradiction on fresh variables.
SchaeferInstance MakeSchaefer(Rng& rng, uint32_t vars, int variant,
                              bool yes) {
  SchaeferInstance in;
  // Room for every relation up front: the Rel references below must stay
  // valid while later relations are added.
  in.a.rels.reserve(4);
  in.b.rels.reserve(4);
  in.yes = yes;
  const uint32_t extra = yes ? 0 : 3;
  in.a.universe = vars + extra;
  in.b.universe = 2;
  std::vector<uint8_t> s(vars);
  for (uint8_t& bit : s) bit = rng.Coin(0.5) ? 1 : 0;
  const uint32_t tuples = vars * 2;
  auto add = [](Facts::Rel& r, std::initializer_list<uint32_t> t) {
    r.cells.insert(r.cells.end(), t);
  };
  if (variant == 0) {
    Facts::Rel& na = in.a.AddRel("N", 2);
    add(in.b.AddRel("N", 2), {0, 1, 1, 0});
    for (uint32_t i = 0; i < tuples; ++i) {
      const uint32_t u = rng.Below(vars);
      const uint32_t v = rng.Below(vars);
      if (s[u] != s[v]) add(na, {u, v});
    }
    if (!yes) {  // an odd cycle has no 2-colouring
      add(na, {vars, vars + 1});
      add(na, {vars + 1, vars + 2});
      add(na, {vars + 2, vars});
    }
    return in;
  }
  Facts::Rel& ta = in.a.AddRel("T", 1);
  Facts::Rel& fa = in.a.AddRel("F", 1);
  add(in.b.AddRel("T", 1), {1});
  add(in.b.AddRel("F", 1), {0});
  for (uint32_t i = 0; i < vars / 8; ++i) {
    const uint32_t v = rng.Below(vars);
    add(s[v] ? ta : fa, {v});
  }
  if (variant == 1) {
    Facts::Rel& ha = in.a.AddRel("H", 3);
    Facts::Rel& hb = in.b.AddRel("H", 3);
    for (uint32_t x = 0; x < 8; ++x) {
      if (x != 6) add(hb, {x >> 2, (x >> 1) & 1, x & 1});  // all but 110
    }
    for (uint32_t i = 0; i < tuples; ++i) {
      const uint32_t x = rng.Below(vars), y = rng.Below(vars),
                     z = rng.Below(vars);
      if (!(s[x] && s[y] && !s[z])) add(ha, {x, y, z});
    }
    if (!yes) {  // T(a), T(b), a∧b→c, F(c)
      add(ta, {vars});
      add(ta, {vars + 1});
      add(ha, {vars, vars + 1, vars + 2});
      add(fa, {vars + 2});
    }
    return in;
  }
  Facts::Rel& oa = in.a.AddRel("O", 2);
  Facts::Rel& ia = in.a.AddRel("I", 2);
  add(in.b.AddRel("O", 2), {0, 1, 1, 0, 1, 1});
  add(in.b.AddRel("I", 2), {0, 0, 0, 1, 1, 1});
  for (uint32_t i = 0; i < tuples; ++i) {
    const uint32_t x = rng.Below(vars), y = rng.Below(vars);
    if (rng.Coin(0.5)) {
      if (s[x] || s[y]) add(oa, {x, y});
    } else if (!s[x] || s[y]) {
      add(ia, {x, y});
    }
  }
  if (!yes) {  // T(a), a→b, F(b)
    add(ta, {vars});
    add(ia, {vars, vars + 1});
    add(fa, {vars + 1});
  }
  return in;
}

/// Geometric ladder: the size of item i of n between lo and hi.
uint32_t Ladder(size_t i, size_t n, double lo, double hi) {
  if (n <= 1) return static_cast<uint32_t>(lo);
  const double t = static_cast<double>(i) / static_cast<double>(n - 1);
  return static_cast<uint32_t>(std::lround(lo * std::pow(hi / lo, t)));
}

OneoffOp AcyclicOp(Rng& rng, uint32_t atoms, size_t i) {
  OneoffOp op;
  op.family = Family::kAcyclic;
  op.shape = Shape::kQuery;
  op.size = atoms;
  const Digraph g = RandomDigraph(rng, 12, 0.3);
  op.right = g.ToFacts().Text();
  op.want.task = op.task = i % 3 == 0   ? HomTask::kCount
                           : i % 3 == 1 ? HomTask::kProject
                                        : HomTask::kWitness;
  std::vector<uint32_t> head{0};
  if (op.task == HomTask::kProject && i % 2 == 1) head = {0, atoms / 2};
  const QueryShape q = TreeQuery(rng, atoms, head, /*max_children=*/3);
  op.left = q.Text();
  if (op.task == HomTask::kProject) {
    auto rows = OracleProject(q, g);
    op.want.rows = rows.size();
    op.want.rows_digest = RowsDigest(std::move(rows));
  } else {
    op.want.count = OracleCount(q, g);
    op.want.yes = op.want.count > 0;
  }
  if (op.task == HomTask::kWitness) {
    op.source = std::make_unique<Facts>(q.ToFacts());
    op.target = std::make_unique<Facts>(g.ToFacts());
  }
  return op;
}

OneoffOp TreewidthOp(Rng& rng, uint32_t n, size_t i) {
  OneoffOp op;
  op.family = Family::kTreewidth;
  op.size = n;
  op.want.task = op.task = i % 2 == 0 ? HomTask::kWitness : HomTask::kDecide;
  // A partial 2-tree keeps its seed triangle: it maps into K3 (2-trees are
  // 3-colourable) and never into the bipartite K_{2,2}.
  op.want.yes = (i / 2) % 2 == 0;
  Facts a = PartialKTree(rng, n, 2, 0.85);
  Facts b = op.want.yes ? Complete(3) : CompleteBipartite(2);
  op.left = a.Text();
  op.right = b.Text();
  if (op.task == HomTask::kWitness) {
    op.source = std::make_unique<Facts>(std::move(a));
    op.target = std::make_unique<Facts>(std::move(b));
  }
  return op;
}

OneoffOp ContainmentOp(Rng& rng, uint32_t atoms, size_t i) {
  OneoffOp op;
  op.family = Family::kContainment;
  op.shape = Shape::kContainment;
  op.size = atoms;
  op.want.task = op.task = HomTask::kDecide;
  const QueryShape q1 = ForwardDag(rng, atoms * 2 / 3, atoms / 3);
  op.left = q1.Text();
  op.want.yes = i % 2 == 0;
  const uint32_t small = std::max<uint32_t>(8, atoms / 10);
  if (op.want.yes) {
    // Q2 is a piece of Q1 around its head: the identity maps it back.
    op.right = RenamedText(SpanningPrefix(q1, small), "Y");
  } else {
    // A directed triangle through the head cannot map into Q1's DAG.
    QueryShape q2 = ChainQuery(small, {0});
    q2.atoms.emplace_back(2, 0);
    op.right = RenamedText(q2, "Y");
  }
  return op;
}

OneoffOp SchaeferOp(Rng& rng, uint32_t vars, size_t i) {
  OneoffOp op;
  op.family = Family::kSchaefer;
  op.size = vars;
  op.want.task = op.task = i % 2 == 0 ? HomTask::kWitness : HomTask::kDecide;
  SchaeferInstance in =
      MakeSchaefer(rng, vars, static_cast<int>(i % 3), (i / 2) % 2 == 0);
  op.want.yes = in.yes;
  op.left = in.a.Text();
  op.right = in.b.Text();
  if (op.task == HomTask::kWitness) {
    op.source = std::make_unique<Facts>(std::move(in.a));
    op.target = std::make_unique<Facts>(std::move(in.b));
  }
  return op;
}

OneoffOp CycleCountOp(Rng& rng, uint32_t n, size_t i) {
  OneoffOp op;
  op.family = Family::kCycleCount;
  op.shape = Shape::kQuery;
  op.size = n;
  op.want.task = op.task = HomTask::kCount;
  QueryShape q = CycleQuery(3 + static_cast<uint32_t>(i % 3));
  const Digraph g = RandomDigraph(rng, n, 0.12);
  op.want.count = OracleCount(q, g);
  q.head.clear();
  op.left = q.Text();
  op.right = g.ToFacts().Text();
  return op;
}

OneoffOp CliqueOp(Rng& rng, uint32_t n, size_t i) {
  OneoffOp op;
  op.family = Family::kClique;
  op.size = n;
  const uint32_t k = 5 + static_cast<uint32_t>(i % 2);
  op.want.yes = (i / 2) % 2 == 0;
  op.want.task = op.task = op.want.yes ? HomTask::kWitness : HomTask::kDecide;
  Digraph g(n);
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t v = u + 1; v < n; ++v) {
      if (op.want.yes || u % (k - 1) != v % (k - 1)) pairs.emplace_back(u, v);
    }
  }
  if (op.want.yes) {
    // G(n, 0.35) with a planted K_k.
    for (auto [u, v] : SamplePairs(rng, std::move(pairs), 0.35)) {
      g.AddSym(u, v);
    }
    std::vector<uint32_t> perm(n);
    for (uint32_t v = 0; v < n; ++v) perm[v] = v;
    Shuffle(perm, rng);
    for (uint32_t a = 0; a < k; ++a) {
      for (uint32_t b = a + 1; b < k; ++b) g.AddSym(perm[a], perm[b]);
    }
  } else {
    // A dense (k-1)-partite graph: (k-1)-colourable, so no K_k.
    for (auto [u, v] : SamplePairs(rng, std::move(pairs), 0.9)) {
      g.AddSym(u, v);
    }
  }
  Facts a = Complete(k);
  Facts b = g.ToFacts();
  op.left = a.Text();
  op.right = b.Text();
  if (op.task == HomTask::kWitness) {
    op.source = std::make_unique<Facts>(std::move(a));
    op.target = std::make_unique<Facts>(std::move(b));
  }
  return op;
}

struct FamilyPlan {
  Family family;
  size_t ops;     ///< operations at scale 1
  double lo, hi;  ///< size ladder
  OneoffOp (*make)(Rng&, uint32_t, size_t);
};

constexpr FamilyPlan kPlans[] = {
    {Family::kAcyclic, 36, 500, 5000, AcyclicOp},
    {Family::kTreewidth, 48, 100, 300, TreewidthOp},
    {Family::kContainment, 240, 150, 1500, ContainmentOp},
    {Family::kSchaefer, 240, 1000, 10000, SchaeferOp},
    {Family::kCycleCount, 336, 24, 40, CycleCountOp},
    {Family::kClique, 200, 9, 14, CliqueOp},
};

}  // namespace

std::vector<OneoffOp> BuildOneoffTrace(uint64_t seed, double scale) {
  Rng rng(seed);
  std::vector<OneoffOp> ops;
  for (const FamilyPlan& plan : kPlans) {
    const size_t n = std::max<size_t>(
        1, static_cast<size_t>(std::lround(static_cast<double>(plan.ops) *
                                           scale)));
    for (size_t i = 0; i < n; ++i) {
      ops.push_back(plan.make(rng, Ladder(i, n, plan.lo, plan.hi), i));
    }
  }
  Shuffle(ops, rng);
  for (OneoffOp& op : ops) {
    op.want.source = op.source.get();
    op.want.target = op.target.get();
  }
  return ops;
}

// ------------------------------------------------------------ the replay ---

namespace {

/// Parsed inputs of one operation.
struct Parsed {
  std::optional<Structure> left_s, right_s;
  std::optional<ConjunctiveQuery> left_q, right_q;
};

class OneoffWorkload : public Workload {
 public:
  explicit OneoffWorkload(const WorkloadConfig& config)
      : ops_(BuildOneoffTrace(config.seed, config.scale)) {}

  size_t size() const override { return ops_.size(); }

  bool Setup(std::string* error) override {
    // Parsed inputs are read-only (each operation compiles from copies), so
    // only the first, cold set-up parses; later passes reuse them.
    if (!parsed_.empty()) return true;
    parsed_.resize(ops_.size());
    for (size_t i = 0; i < ops_.size(); ++i) {
      const OneoffOp& op = ops_[i];
      Parsed& p = parsed_[i];
      auto fail = [&](const cqcs::Status& s) {
        *error = std::string(FamilyName(op.family)) + " input: " +
                 s.ToString();
        return false;
      };
      if (op.shape == Shape::kContainment) {
        auto q1 = cqcs::ParseQuery(op.left);
        if (!q1.ok()) return fail(q1.status());
        auto q2 = cqcs::ParseQuery(op.right, q1->vocabulary());
        if (!q2.ok()) return fail(q2.status());
        p.left_q.emplace(*std::move(q1));
        p.right_q.emplace(*std::move(q2));
        continue;
      }
      auto right = cqcs::ParseStructure(op.right);
      if (!right.ok()) return fail(right.status());
      if (op.shape == Shape::kQuery) {
        auto q = cqcs::ParseQuery(op.left, right->vocabulary());
        if (!q.ok()) return fail(q.status());
        p.left_q.emplace(*std::move(q));
      } else {
        auto left = cqcs::ParseStructure(op.left);
        if (!left.ok()) return fail(left.status());
        p.left_s.emplace(*std::move(left));
      }
      p.right_s.emplace(*std::move(right));
    }
    return true;
  }

  void Prepare(size_t i) override {
    // The compiled problem owns its inputs; hand it copies so every pass
    // starts from the same parsed text.
    const Parsed& p = parsed_[i];
    if (p.left_s.has_value()) left_.emplace(*p.left_s);
    if (p.right_s.has_value()) right_.emplace(*p.right_s);
  }

  void Execute(size_t i) override {
    const OneoffOp& op = ops_[i];
    const Parsed& p = parsed_[i];
    Result<HomProblem> problem =
        op.shape == Shape::kStructures
            ? HomProblem::FromStructures(*std::move(left_), *std::move(right_))
        : op.shape == Shape::kQuery
            ? HomProblem::FromQuery(*p.left_q, *std::move(right_))
            : HomProblem::FromContainment(*p.left_q, *p.right_q);
    if (!problem.ok()) {
      result_.emplace(problem.status());
      return;
    }
    result_.emplace(engine_.Run(*problem, op.task));
    problem_.emplace(*std::move(problem));  // destroyed outside the timer
  }

  OpRecord Check(size_t i) override {
    OpRecord record;
    if (!result_->ok()) {
      record.failed = true;
      record.why = std::string(FamilyName(ops_[i].family)) + ": " +
                   result_->status().ToString();
    } else {
      CheckAnswer(**result_, ops_[i].want, &record);
      if (record.failed) {
        record.why = std::string(FamilyName(ops_[i].family)) + " size " +
                     std::to_string(ops_[i].size) + ": " + record.why;
      }
    }
    result_.reset();
    problem_.reset();
    left_.reset();
    right_.reset();
    return record;
  }

  void Teardown() override {}

  std::string Label(size_t i) const override {
    return std::string(FamilyName(ops_[i].family)) + " " +
           cqcs::HomTaskName(ops_[i].task);
  }

 private:
  const std::vector<OneoffOp> ops_;
  const cqcs::HomEngine engine_{};  // kAuto, one thread
  std::vector<Parsed> parsed_;
  std::optional<Structure> left_, right_;
  std::optional<HomProblem> problem_;
  std::optional<Result<EngineResult>> result_;
};

}  // namespace

std::unique_ptr<Workload> MakeOneoff(const WorkloadConfig& config) {
  return std::make_unique<OneoffWorkload>(config);
}

}  // namespace cqbench
