#pragma once
/// \file harness.hpp
/// \brief Shared pieces of the whole-stack benchmark: run configuration,
/// metric/tally/digest sinks, statistics, time budgets, and the seeded
/// input generators. The benchmark drives the library only through the
/// public functions of its modules.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "graph/crs.hpp"
#include "multilevel/options.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using parmis::ordinal_t;
using parmis::scalar_t;

struct RunConfig {
  std::string workload;  ///< "mesh3d" or "powerlaw"
  std::uint64_t seed = 1;
  double seconds = 10;   ///< measured time of one run
  bool trace = false;    ///< traced run: per-layer metrics and a Chrome trace
  bool small = false;    ///< reduced sizes (self-test)
  std::string out_dir = ".";
};

/// Named metric values in insertion order, each with its unit.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  void put(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] double get(const std::string& name) const;

 private:
  std::vector<Entry> entries_;
};

/// Operations attempted and failed. A failed check is named on stderr and
/// its operation reports no time.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool check(bool ok, const std::string& what);
};

struct Results {
  Metrics metrics;
  Tally tally;
  std::vector<std::pair<std::string, std::uint64_t>> digests;
};

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Deadline for a stage loop: keep going while under `min_count`, or while
/// time remains and under `max_count`.
class Budget {
 public:
  explicit Budget(double seconds) : seconds_(seconds) {}
  [[nodiscard]] bool more(std::size_t done, std::size_t min_count, std::size_t max_count) const {
    if (done < min_count) return true;
    return done < max_count && timer_.seconds() - excluded_ < seconds_;
  }
  /// Run `fn` without charging its time to the budget.
  template <typename F>
  void exclude(F&& fn) {
    const parmis::obs::Timer t;
    fn();
    excluded_ += t.seconds();
  }

 private:
  double seconds_;
  double excluded_ = 0;
  parmis::obs::Timer timer_;
};

/// Run `fn` inside an obs::Span named `span` (a string literal) and return
/// its wall time in milliseconds.
template <typename F>
double timed_ms(const char* span, F&& fn) {
  parmis::obs::Span s(span);
  const parmis::obs::Timer t;
  fn();
  return t.milliseconds();
}

/// One workload's generated inputs: the offline operator and the smaller
/// operator the serving phase runs on. A = Laplacian(G) + I for both.
struct Inputs {
  parmis::graph::CrsGraph graph;
  parmis::graph::CrsMatrix a;
  parmis::graph::CrsGraph serve_graph;
  parmis::graph::CrsMatrix serve_a;
};

[[nodiscard]] Inputs make_inputs(const RunConfig& cfg);

/// The seeded value change: symmetric edge weights w(u,v) in [1, 1.5) and a
/// diagonal of sum(w) + 1, on the structure of `a` (which must carry every
/// diagonal entry). The result stays SPD.
[[nodiscard]] std::vector<scalar_t> reweighted_values(const parmis::graph::CrsMatrix& a,
                                                      std::uint64_t seed);

/// Right-hand-side seed of solve `i` in a run seeded `run_seed`.
[[nodiscard]] std::uint64_t rhs_seed(std::uint64_t run_seed, std::uint64_t i);

/// True relative residual ||b - A x|| / ||b||, computed with graph::spmv
/// into the caller's scratch `r`.
[[nodiscard]] double true_residual(const parmis::graph::CrsMatrix& a,
                                   std::span<const scalar_t> b, std::span<const scalar_t> x,
                                   std::vector<scalar_t>& r);

/// Bytes of a CRS matrix's three arrays.
[[nodiscard]] double matrix_bytes(const parmis::graph::CrsMatrix& a);

/// The AMG preconditioner's hierarchy configuration (solver::AmgOptions
/// defaults, coarsener "mis2") as multilevel::Builder options, so the
/// benchmark's own Galerkin builds match the hierarchy the solves use. The
/// offline stages check that they do.
[[nodiscard]] parmis::multilevel::Options galerkin_options();

/// Accept a solve whose true residual meets this (the solver stops at
/// 1e-8 on its recurrence residual).
inline constexpr double kResidualLimit = 1e-6;
inline constexpr double kSolveTolerance = 1e-8;

/// Offline stages: cold AMG setup, warm MIS-2 topology coarsening,
/// closed-loop single-RHS solves, K=8 block waves, warm value rebuilds.
/// `between` runs after each round, outside the budget.
void run_offline(const RunConfig& cfg, const Inputs& in, double seconds, Results& res,
                 const std::function<void()>& between = {});

/// Serving stages on `in.serve_a`: snapshot save/open and Service set-up
/// on construction, then an open loop in cycles of the two fixed rates,
/// which may interleave with other work, and the rate ladder at the end.
class Serving {
 public:
  Serving(const RunConfig& cfg, const Inputs& in, double seconds, Results& res);
  ~Serving();
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  /// One cycle at the fixed rates (one more verified service set-up, then a
  /// low-rate and a high-rate segment). False, doing nothing, once the
  /// cycles that `seconds` allows are done.
  bool cycle();
  /// The remaining cycles, the ladder climbs, and the metrics.
  void finish();

 private:
  struct State;
  std::unique_ptr<State> s_;
};

/// Per-layer kernels (traced run only): graph, core and multilevel layers,
/// each at 1 thread and at nproc threads.
void run_layers(const RunConfig& cfg, const Inputs& in, Results& res);

}  // namespace perfbench
