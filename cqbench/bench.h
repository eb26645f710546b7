// Shared pieces of the end-to-end benchmark: the seeded generator, the
// benchmark's own model of structures and queries, and the answer oracle.
//
// Nothing in this header (or model.cc) calls into libcqcs: the oracle is a
// computation made apart from the program, so a wrong answer from the
// library cannot be mirrored by the check that is meant to catch it.

#ifndef CQBENCH_BENCH_H_
#define CQBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace cqbench {

// ------------------------------------------------------------------ clock ---

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// -------------------------------------------------------------------- rng ---

/// xoshiro256** seeded through splitmix64: the same seed gives the same
/// stream on every platform (no std:: distributions, whose output is
/// implementation-defined).
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint32_t Below(uint32_t n);
  /// Uniform in [0, 1).
  double Unit();
  bool Coin(double p) { return Unit() < p; }

 private:
  uint64_t s_[4];
};

/// Zipfian sampler over ranks [0, n) with exponent theta.
class Zipf {
 public:
  Zipf(uint32_t n, double theta);
  uint32_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Below(static_cast<uint32_t>(i))]);
  }
}

// ------------------------------------------------------------------ facts ---

/// A finite relational structure as the benchmark models it: relations in
/// a fixed order (the text keeps that order, so two structures built over
/// the same relation list parse to equal vocabularies).
struct Facts {
  struct Rel {
    std::string name;
    uint32_t arity = 0;
    std::vector<uint32_t> cells;  ///< tuples, flat
    size_t size() const { return arity == 0 ? 0 : cells.size() / arity; }
  };
  uint32_t universe = 0;
  std::vector<Rel> rels;

  Rel& AddRel(std::string name, uint32_t arity);
  /// core/io text: "universe n" then one "name/arity: ..." line per rel.
  std::string Text() const;
};

/// True when `h` maps every tuple of `a` onto a tuple of `b` (relations
/// matched by position). On failure `why` names the first broken tuple.
bool VerifyWitness(const Facts& a, const Facts& b,
                   std::span<const uint32_t> h, std::string* why);

// ----------------------------------------------------------------- graphs ---

/// A directed graph over [0, n) with an adjacency matrix; as a structure it
/// is the single binary relation E.
struct Digraph {
  uint32_t n = 0;
  std::vector<uint8_t> adj;  ///< n * n
  std::vector<std::pair<uint32_t, uint32_t>> edges;

  explicit Digraph(uint32_t vertices = 0)
      : n(vertices), adj(static_cast<size_t>(vertices) * vertices, 0) {}
  bool Has(uint32_t u, uint32_t v) const {
    return adj[static_cast<size_t>(u) * n + v] != 0;
  }
  /// Adds u -> v once (duplicates ignored).
  void Add(uint32_t u, uint32_t v);
  /// Adds both directions.
  void AddSym(uint32_t u, uint32_t v) {
    Add(u, v);
    Add(v, u);
  }
  Facts ToFacts() const;
};

/// round(p * |candidates|) (at least one) of the candidate pairs, drawn
/// without replacement. Fixed edge counts keep the cost of one workload
/// operation close across seeds.
std::vector<std::pair<uint32_t, uint32_t>> SamplePairs(
    Rng& rng, std::vector<std::pair<uint32_t, uint32_t>> candidates,
    double p);

/// G(n, m) over ordered pairs without loops, m = round(p * n * (n - 1)).
Digraph RandomDigraph(Rng& rng, uint32_t n, double p);

// ---------------------------------------------------------------- queries ---

/// A conjunctive query over the binary relation E whose body is a tree
/// (chains, stars, random trees) or one directed cycle.
struct QueryShape {
  uint32_t vars = 0;
  std::vector<std::pair<uint32_t, uint32_t>> atoms;  ///< E(a, b)
  std::vector<uint32_t> head;
  std::string Text() const;
  /// The canonical database D_Q, its elements numbered as cq/parser numbers
  /// variables: by first occurrence in the body. A witness for the query
  /// is checked against this numbering.
  Facts ToFacts() const;
};

QueryShape ChainQuery(uint32_t length, std::vector<uint32_t> head);
QueryShape StarQuery(uint32_t leaves);
/// A random tree on `edges` + 1 variables in BFS numbering, each edge
/// oriented at random. When `max_children` > 0 no node has more children.
QueryShape TreeQuery(Rng& rng, uint32_t edges, std::vector<uint32_t> head,
                     uint32_t max_children = 0);
QueryShape CycleQuery(uint32_t length);

// ----------------------------------------------------------------- oracle ---

constexpr uint64_t kSaturated = UINT64_MAX;

/// Homomorphism count of q's body into g (all variables assigned),
/// saturating at 2^64 - 1 like the engine's default count_limit. Closed
/// forms: a directed cycle of length m counts trace(A^m); tree bodies
/// (chains: sums of A^L, stars: sums of out-degree^k) run a sum-product DP.
uint64_t OracleCount(const QueryShape& q, const Digraph& g);

/// The distinct head tuples of q over g, sorted: reachability sets. Heads
/// of at most two variables; cycles support the head (X0) only.
std::vector<std::vector<uint32_t>> OracleProject(const QueryShape& q,
                                                 const Digraph& g);

/// Order-independent digest of a row set (rows sorted before hashing).
uint64_t RowsDigest(std::vector<std::vector<uint32_t>> rows);

}  // namespace cqbench

#endif  // CQBENCH_BENCH_H_
