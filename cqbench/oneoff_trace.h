// The oneoff workload's instances: large one-off evaluation, containment
// and homomorphism problems whose answers are known by construction or by
// the oracle. Shared by the timed replay (oneoff.cc) and the traced run.

#ifndef CQBENCH_ONEOFF_TRACE_H_
#define CQBENCH_ONEOFF_TRACE_H_

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "workload.h"

namespace cqbench {

enum class Family {
  kAcyclic,      ///< tree CQs of 10^3..10^4 atoms: count, project, witness
  kTreewidth,    ///< partial k-trees: decide, witness
  kContainment,  ///< Q1 ⊆ Q2 that holds or fails by construction
  kSchaefer,     ///< Boolean Schaefer targets: decide, witness
  kCycleCount,   ///< count of short cyclic queries (uniform search)
  kClique,       ///< clique refutation and planted cliques (uniform search)
};
const char* FamilyName(Family f);

/// How the operation compiles its HomProblem.
enum class Shape {
  kStructures,   ///< FromStructures(left, right)
  kQuery,        ///< FromQuery(ParseQuery(left), right)
  kContainment,  ///< FromContainment(ParseQuery(left), ParseQuery(right))
};

struct OneoffOp {
  Family family = Family::kAcyclic;
  Shape shape = Shape::kStructures;
  cqcs::HomTask task = cqcs::HomTask::kDecide;
  std::string left, right;  ///< instance texts (core/io or CQ syntax)
  /// The source and target as the benchmark built them, for witness
  /// checks (witness tasks only).
  std::unique_ptr<Facts> source, target;
  Expected want;
  size_t size = 0;  ///< the family's size parameter, for reports
};

/// Complete symmetric loopless graph on n vertices.
Facts Complete(uint32_t n);

/// A partial k-tree on n vertices: each new vertex joins a random k-clique
/// of the k-tree so far; edges outside the seed clique K_{k+1} survive with
/// probability `keep`. Every edge gets a random direction.
Facts PartialKTree(Rng& rng, uint32_t n, uint32_t k, double keep);

/// The trace at `scale` (1.0 = the measured trace), in seeded order.
std::vector<OneoffOp> BuildOneoffTrace(uint64_t seed, double scale);

}  // namespace cqbench

#endif  // CQBENCH_ONEOFF_TRACE_H_
