// The benchmark's generator and answer oracle. No libcqcs calls here.

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "bench.h"

namespace cqbench {

// -------------------------------------------------------------------- rng ---

namespace {

uint64_t SplitMix(uint64_t& x) {
  uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  for (uint64_t& s : s_) s = SplitMix(seed);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint32_t Rng::Below(uint32_t n) {
  return static_cast<uint32_t>((Next() >> 32) * n >> 32);
}

double Rng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

Zipf::Zipf(uint32_t n, double theta) : cdf_(n) {
  double sum = 0;
  for (uint32_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

uint32_t Zipf::Sample(Rng& rng) const {
  const double u = rng.Unit();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<uint32_t>(it - cdf_.begin());
}

// ------------------------------------------------------------------ facts ---

Facts::Rel& Facts::AddRel(std::string name, uint32_t arity) {
  rels.push_back(Rel{std::move(name), arity, {}});
  return rels.back();
}

std::string Facts::Text() const {
  std::string out = "universe " + std::to_string(universe) + "\n";
  for (const Rel& r : rels) {
    out += r.name + "/" + std::to_string(r.arity) + ":";
    for (size_t t = 0; t < r.size(); ++t) {
      out += t == 0 ? " " : ", ";
      for (uint32_t p = 0; p < r.arity; ++p) {
        if (p > 0) out += ' ';
        out += std::to_string(r.cells[t * r.arity + p]);
      }
    }
    out += '\n';
  }
  return out;
}

bool VerifyWitness(const Facts& a, const Facts& b,
                   std::span<const uint32_t> h, std::string* why) {
  if (h.size() != a.universe) {
    *why = "witness has " + std::to_string(h.size()) + " entries, source " +
           "universe is " + std::to_string(a.universe);
    return false;
  }
  for (uint32_t e : h) {
    if (e >= b.universe) {
      *why = "witness maps outside the target universe";
      return false;
    }
  }
  if (a.rels.size() != b.rels.size()) {
    *why = "vocabularies differ";
    return false;
  }
  for (size_t r = 0; r < a.rels.size(); ++r) {
    const Facts::Rel& ra = a.rels[r];
    const Facts::Rel& rb = b.rels[r];
    // Tuples of b packed into one integer key (universe < 2^21, arity <= 3).
    std::unordered_set<uint64_t> present;
    auto key = [&](auto cell) {
      uint64_t k = 0;
      for (uint32_t p = 0; p < ra.arity; ++p) k = (k << 21) | cell(p);
      return k;
    };
    for (size_t t = 0; t < rb.size(); ++t) {
      present.insert(key([&](uint32_t p) { return rb.cells[t * rb.arity + p]; }));
    }
    for (size_t t = 0; t < ra.size(); ++t) {
      const uint64_t k =
          key([&](uint32_t p) { return h[ra.cells[t * ra.arity + p]]; });
      if (present.count(k) == 0) {
        *why = "tuple " + std::to_string(t) + " of " + ra.name +
               " maps outside the target relation";
        return false;
      }
    }
  }
  return true;
}

// ----------------------------------------------------------------- graphs ---

void Digraph::Add(uint32_t u, uint32_t v) {
  uint8_t& cell = adj[static_cast<size_t>(u) * n + v];
  if (cell) return;
  cell = 1;
  edges.emplace_back(u, v);
}

Facts Digraph::ToFacts() const {
  Facts f;
  f.universe = n;
  Facts::Rel& e = f.AddRel("E", 2);
  for (auto [u, v] : edges) {
    e.cells.push_back(u);
    e.cells.push_back(v);
  }
  return f;
}

std::vector<std::pair<uint32_t, uint32_t>> SamplePairs(
    Rng& rng, std::vector<std::pair<uint32_t, uint32_t>> candidates,
    double p) {
  const size_t m = std::max<size_t>(
      1, static_cast<size_t>(std::lround(p * static_cast<double>(
                                                 candidates.size()))));
  // Partial Fisher-Yates: the first m candidates of a random permutation.
  for (size_t i = 0; i < m && i < candidates.size(); ++i) {
    const size_t j =
        i + rng.Below(static_cast<uint32_t>(candidates.size() - i));
    std::swap(candidates[i], candidates[j]);
  }
  candidates.resize(std::min(m, candidates.size()));
  return candidates;
}

Digraph RandomDigraph(Rng& rng, uint32_t n, double p) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t v = 0; v < n; ++v) {
      if (u != v) pairs.emplace_back(u, v);
    }
  }
  Digraph g(n);
  for (auto [u, v] : SamplePairs(rng, std::move(pairs), p)) g.Add(u, v);
  return g;
}

// ---------------------------------------------------------------- queries ---

std::string QueryShape::Text() const {
  // Appended piecewise: GCC 12 mis-fires -Wrestrict on
  // `"X" + std::to_string(v)` at -O2 (PR105329).
  std::string out = "Q(";
  for (size_t i = 0; i < head.size(); ++i) {
    if (i > 0) out += ", ";
    out += 'X';
    out += std::to_string(head[i]);
  }
  out += ") :- ";
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "E(X";
    out += std::to_string(atoms[i].first);
    out += ", X";
    out += std::to_string(atoms[i].second);
    out += ')';
  }
  return out + ".";
}

Facts QueryShape::ToFacts() const {
  Facts f;
  f.universe = vars;
  Facts::Rel& e = f.AddRel("E", 2);
  std::vector<uint32_t> id(vars, UINT32_MAX);
  uint32_t next = 0;
  for (auto [a, b] : atoms) {
    for (uint32_t v : {a, b}) {
      if (id[v] == UINT32_MAX) id[v] = next++;
      e.cells.push_back(id[v]);
    }
  }
  return f;
}

QueryShape ChainQuery(uint32_t length, std::vector<uint32_t> head) {
  QueryShape q;
  q.vars = length + 1;
  for (uint32_t i = 0; i < length; ++i) q.atoms.emplace_back(i, i + 1);
  q.head = std::move(head);
  return q;
}

QueryShape StarQuery(uint32_t leaves) {
  QueryShape q;
  q.vars = leaves + 1;
  for (uint32_t i = 1; i <= leaves; ++i) q.atoms.emplace_back(0, i);
  q.head = {0};
  return q;
}

QueryShape TreeQuery(Rng& rng, uint32_t edges, std::vector<uint32_t> head,
                     uint32_t max_children) {
  QueryShape q;
  q.vars = edges + 1;
  std::vector<uint32_t> children(q.vars, 0);
  for (uint32_t v = 1; v < q.vars; ++v) {
    // Parents are drawn from a window of recent vertices so deep and
    // bushy trees both occur; BFS numbering keeps parent < child.
    const uint32_t lo = v > 8 ? v - 8 : 0;
    uint32_t parent = lo + rng.Below(v - lo);
    if (max_children > 0) {
      while (children[parent] >= max_children) parent = (parent + 1) % v;
    }
    ++children[parent];
    if (rng.Coin(0.5)) {
      q.atoms.emplace_back(parent, v);
    } else {
      q.atoms.emplace_back(v, parent);
    }
  }
  q.head = std::move(head);
  return q;
}

QueryShape CycleQuery(uint32_t length) {
  QueryShape q;
  q.vars = length;
  for (uint32_t i = 0; i < length; ++i) {
    q.atoms.emplace_back(i, (i + 1) % length);
  }
  q.head = {0};
  return q;
}

// ----------------------------------------------------------------- oracle ---

namespace {

uint64_t SatAdd(uint64_t a, uint64_t b) {
  return a > kSaturated - b ? kSaturated : a + b;
}

uint64_t SatMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  return a > kSaturated / b ? kSaturated : a * b;
}

bool IsCycle(const QueryShape& q) { return q.atoms.size() == q.vars; }

/// Saturated count matrix A^m.
std::vector<uint64_t> MatrixPower(const Digraph& g, uint32_t m) {
  const uint32_t n = g.n;
  std::vector<uint64_t> p(static_cast<size_t>(n) * n, 0);
  for (uint32_t i = 0; i < n; ++i) p[static_cast<size_t>(i) * n + i] = 1;
  for (uint32_t step = 0; step < m; ++step) {
    std::vector<uint64_t> next(p.size(), 0);
    for (uint32_t i = 0; i < n; ++i) {
      for (auto [u, v] : g.edges) {
        const uint64_t x = p[static_cast<size_t>(i) * n + u];
        if (x != 0) {
          uint64_t& cell = next[static_cast<size_t>(i) * n + v];
          cell = SatAdd(cell, x);
        }
      }
    }
    p = std::move(next);
  }
  return p;
}

/// Sum-product DP over a tree-shaped body rooted at `root`: entry x is the
/// (saturated) number of homomorphisms that send root to x. `pin_var`
/// (when < vars) is restricted to `pin_val`.
std::vector<uint64_t> TreeTable(const QueryShape& q, const Digraph& g,
                                uint32_t root, uint32_t pin_var,
                                uint32_t pin_val) {
  const uint32_t n = g.n;
  struct Nb {
    uint32_t var;
    bool out;  // atom E(self, var)
  };
  std::vector<std::vector<Nb>> nbrs(q.vars);
  for (auto [a, b] : q.atoms) {
    nbrs[a].push_back({b, true});
    nbrs[b].push_back({a, false});
  }
  std::vector<std::vector<uint32_t>> out(n), in(n);
  for (auto [u, v] : g.edges) {
    out[u].push_back(v);
    in[v].push_back(u);
  }
  std::vector<uint32_t> order{root};
  std::vector<uint32_t> parent(q.vars, UINT32_MAX);
  std::vector<uint8_t> seen(q.vars, 0);
  seen[root] = 1;
  for (size_t i = 0; i < order.size(); ++i) {
    for (const Nb& nb : nbrs[order[i]]) {
      if (!seen[nb.var]) {
        seen[nb.var] = 1;
        parent[nb.var] = order[i];
        order.push_back(nb.var);
      }
    }
  }
  std::vector<std::vector<uint64_t>> f(q.vars);
  for (size_t i = order.size(); i-- > 0;) {
    const uint32_t v = order[i];
    std::vector<uint64_t> table(n, 1);
    if (v == pin_var) {
      for (uint32_t x = 0; x < n; ++x) table[x] = x == pin_val ? 1 : 0;
    }
    for (const Nb& nb : nbrs[v]) {
      if (parent[nb.var] != v) continue;  // only children
      const std::vector<uint64_t>& child = f[nb.var];
      for (uint32_t x = 0; x < n; ++x) {
        if (table[x] == 0) continue;
        uint64_t sum = 0;
        for (uint32_t y : nb.out ? out[x] : in[x]) sum = SatAdd(sum, child[y]);
        table[x] = SatMul(table[x], sum);
      }
      f[nb.var].clear();
      f[nb.var].shrink_to_fit();
    }
    f[v] = std::move(table);
  }
  return f[root];
}

}  // namespace

uint64_t OracleCount(const QueryShape& q, const Digraph& g) {
  if (IsCycle(q)) {
    const std::vector<uint64_t> p = MatrixPower(g, q.vars);
    uint64_t trace = 0;
    for (uint32_t i = 0; i < g.n; ++i) {
      trace = SatAdd(trace, p[static_cast<size_t>(i) * g.n + i]);
    }
    return trace;
  }
  uint64_t total = 0;
  for (uint64_t x : TreeTable(q, g, 0, UINT32_MAX, 0)) total = SatAdd(total, x);
  return total;
}

std::vector<std::vector<uint32_t>> OracleProject(const QueryShape& q,
                                                 const Digraph& g) {
  std::vector<std::vector<uint32_t>> rows;
  if (q.head.empty()) {
    if (OracleCount(q, g) > 0) rows.emplace_back();
    return rows;
  }
  const uint32_t h0 = q.head[0];
  if (IsCycle(q)) {
    const std::vector<uint64_t> p = MatrixPower(g, q.vars);
    for (uint32_t x = 0; x < g.n; ++x) {
      if (p[static_cast<size_t>(x) * g.n + x] != 0) rows.push_back({x});
    }
    return rows;
  }
  if (q.head.size() == 1) {
    const std::vector<uint64_t> t = TreeTable(q, g, h0, UINT32_MAX, 0);
    for (uint32_t x = 0; x < g.n; ++x) {
      if (t[x] != 0) rows.push_back({x});
    }
    return rows;
  }
  const uint32_t h1 = q.head[1];
  for (uint32_t y = 0; y < g.n; ++y) {
    const std::vector<uint64_t> t = TreeTable(q, g, h0, h1, y);
    for (uint32_t x = 0; x < g.n; ++x) {
      if (t[x] != 0) rows.push_back({x, y});
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

uint64_t RowsDigest(std::vector<std::vector<uint32_t>> rows) {
  std::sort(rows.begin(), rows.end());
  uint64_t h = 0x243f6a8885a308d3ULL;
  auto mix = [&h](uint64_t x) {
    h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  for (const auto& row : rows) {
    mix(row.size());
    for (uint32_t e : row) mix(e);
  }
  return h;
}

}  // namespace cqbench
