#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/spmv.hpp"
#include "random/hash.hpp"
#include "solver/amg.hpp"
#include "solver/vector_ops.hpp"

namespace perfbench {

using namespace parmis;

void Metrics::put(const std::string& name, double value, const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

double Metrics::get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  throw std::out_of_range("perfbench: metric " + name + " was not measured");
}

bool Tally::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {

graph::CrsGraph mesh_graph(ordinal_t nx) {
  const graph::CrsMatrix stencil = graph::laplace3d(nx, nx, nx);
  return graph::remove_self_loops(stencil);
}

graph::CrsGraph skewed_graph(ordinal_t n, std::uint64_t seed) {
  return graph::power_law_graph(n, 2.2, 4, std::max<ordinal_t>(64, n / 60), seed);
}

}  // namespace

Inputs make_inputs(const RunConfig& cfg) {
  Inputs in;
  if (cfg.workload == "mesh3d") {
    in.graph = mesh_graph(cfg.small ? 20 : 60);
    in.serve_graph = mesh_graph(cfg.small ? 10 : 16);
  } else if (cfg.workload == "powerlaw") {
    // The graph's structure is fixed, not drawn from the run's seed: solve
    // and setup times on power-law graphs depend on it far beyond run-to-run
    // noise (with generator seed 14, for one, AMG setup takes ~2x as long at
    // 4 threads). Generator seed 42 is the repository's gen:powerlaw input.
    in.graph = skewed_graph(cfg.small ? 3000 : 25000, 42);
    in.serve_graph = skewed_graph(cfg.small ? 1000 : 2000, 42);
  } else {
    throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
  }
  in.a = graph::laplacian_matrix(in.graph, 1.0);
  in.serve_a = graph::laplacian_matrix(in.serve_graph, 1.0);
  return in;
}

std::vector<scalar_t> reweighted_values(const graph::CrsMatrix& a, std::uint64_t seed) {
  std::vector<scalar_t> values(a.values.size());
  const std::uint64_t salt = rng::splitmix64_mix(seed ^ 0x5eedULL);
  for (ordinal_t i = 0; i < a.num_rows; ++i) {
    scalar_t sum = 0;
    offset_t diag = -1;
    for (offset_t j = a.row_map[static_cast<std::size_t>(i)];
         j < a.row_map[static_cast<std::size_t>(i) + 1]; ++j) {
      const ordinal_t c = a.entries[static_cast<std::size_t>(j)];
      if (c == i) {
        diag = j;
        continue;
      }
      const std::uint64_t lo = static_cast<std::uint64_t>(std::min(i, c));
      const std::uint64_t hi = static_cast<std::uint64_t>(std::max(i, c));
      const std::uint64_t h = rng::splitmix64_mix(salt ^ rng::splitmix64_mix((lo << 32) | hi));
      const scalar_t w = 1.0 + 0.5 * static_cast<scalar_t>(h >> 11) * 0x1.0p-53;
      values[static_cast<std::size_t>(j)] = -w;
      sum += w;
    }
    if (diag < 0) throw std::invalid_argument("reweighted_values: row without a diagonal");
    values[static_cast<std::size_t>(diag)] = sum + 1.0;
  }
  return values;
}

double matrix_bytes(const graph::CrsMatrix& a) {
  return static_cast<double>(a.row_map.size() * sizeof(offset_t) +
                             a.entries.size() * sizeof(ordinal_t) +
                             a.values.size() * sizeof(scalar_t));
}

multilevel::Options galerkin_options() {
  const solver::AmgOptions amg;
  multilevel::Options mo;
  mo.coarsener = "mis2";
  mo.max_levels = std::max(0, amg.max_levels - 1);
  mo.min_coarse_size = amg.coarse_size;
  mo.rate_floor = amg.coarsening_rate_floor;
  mo.complexity_cap = amg.operator_complexity_cap;
  mo.prolongator_omega = amg.prolongator_omega;
  mo.mis2 = amg.mis2;
  mo.ctx = amg.ctx;
  return mo;
}

std::uint64_t rhs_seed(std::uint64_t run_seed, std::uint64_t i) {
  return rng::splitmix64_mix(run_seed * 0x9E3779B97F4A7C15ULL + i) | 1ULL;
}

double true_residual(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                     std::span<const scalar_t> x, std::vector<scalar_t>& r) {
  r.assign(b.begin(), b.end());
  graph::spmv(-1.0, a, x, 1.0, r);
  const double bnorm = solver::norm2(b);
  const double rnorm = solver::norm2(r);
  if (!std::isfinite(rnorm) || bnorm <= 0.0) return INFINITY;
  return rnorm / bnorm;
}

}  // namespace perfbench
