/// \file offline.cpp
/// \brief The offline stages of a workload: cold AMG(mis2) setup, warm
/// MIS-2 topology coarsening, a closed loop of single-RHS AMG-CG solves,
/// K=8 block-CG waves, and warm value-only Galerkin rebuilds after a
/// seeded value change.
///
/// The stages run in rounds, each round doing a little of every stage, so
/// every metric's samples spread over the whole measured time and a burst
/// of outside load moves all medians a little rather than one a lot.
/// Every output is checked; a failed check counts its operation as failed
/// and drops its time.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "check/digest.hpp"
#include "check/validate.hpp"
#include "core/mis2.hpp"
#include "core/verify.hpp"
#include "harness.hpp"
#include "multilevel/builder.hpp"
#include "solver/amg.hpp"
#include "solver/handle.hpp"
#include "solver/multivector.hpp"
#include "solver/vector_ops.hpp"

namespace perfbench {

using namespace parmis;

namespace {

constexpr int kBatch = 8;
/// Per round: one cold setup, one block wave and one rebuild, and these
/// many of the rest. A round takes about 1.5 s on either workload, so each
/// stage gets a sample every round.
constexpr int kSolvesPerRound = 4;
constexpr int kCoarsensPerRound = 2;

solver::IterOptions iter_options() {
  solver::IterOptions o;
  o.tolerance = kSolveTolerance;
  o.max_iterations = 500;
  return o;
}

solver::SolveHandle amg_handle(const std::string& solver_name) {
  solver::SolveHandle h(solver_name, "amg");
  h.prec_options().amg.coarsener = "mis2";
  return h;
}

std::uint64_t steps_digest(const std::vector<multilevel::Step>& steps) {
  std::uint64_t d = check::digest_combine(0, steps.size());
  for (const multilevel::Step& s : steps) {
    d = check::digest_combine(d, check::digest(s.aggregation.labels));
  }
  return d;
}

std::uint64_t ops_digest(const std::vector<multilevel::OperatorLevel>& ops) {
  std::uint64_t d = check::digest_combine(0, ops.size());
  for (const multilevel::OperatorLevel& l : ops) d = check::digest_combine(d, check::digest(l.a));
  return d;
}

std::string checked_what(const char* what, const check::Result& v, const char* otherwise) {
  return std::string(what) + ": " + (v.ok ? std::string(otherwise) : v.diagnostic());
}

}  // namespace

void run_offline(const RunConfig& cfg, const Inputs& in, double seconds, Results& res,
                 const std::function<void()>& between) {
  const graph::CrsMatrix& a = in.a;
  const ordinal_t n = a.num_rows;
  const std::size_t un = static_cast<std::size_t>(n);
  Metrics& m = res.metrics;
  Tally& t = res.tally;
  const solver::IterOptions iopts = iter_options();

  // One verified MIS-2 of the input graph: the run's MIS-2 witness digest.
  {
    const core::Mis2Result mis = core::mis2(in.graph);
    if (t.check(core::verify_mis2(in.graph, mis.in_set), "mis2: not a maximal distance-2 set")) {
      res.digests.emplace_back("mis2", check::digest(mis.in_set));
    }
  }

  // Warm state the rounds reuse: the topology hierarchy handle, the
  // block-CG handle, and a Galerkin hierarchy to rebuild.
  const multilevel::Builder topo(multilevel::Options{});
  multilevel::HierarchyHandle topo_h;
  (void)topo.build(in.graph, topo_h);
  const std::uint64_t topo_digest = steps_digest(topo_h.steps());
  res.digests.emplace_back("coarsen_hierarchy", topo_digest);

  const multilevel::Builder galerkin(galerkin_options());
  multilevel::HierarchyHandle gal_h;
  const double build_ms =
      timed_ms("bench.build_galerkin", [&] { (void)galerkin.build_galerkin(a, gal_h); });
  {
    const check::Result v = check::validate_hierarchy(gal_h.ops());
    t.check(v.ok, "build_galerkin: " + v.diagnostic());
    const multilevel::HierarchyStats& hs = gal_h.build_stats();
    m.put("multilevel.build_galerkin_ms", build_ms, "ms");
    m.put("multilevel.levels", hs.levels, "count");
    m.put("multilevel.op_complexity", hs.operator_complexity, "ratio");
    const double rows1 = hs.level_rows.size() > 1 ? hs.level_rows[1] : 0.0;
    m.put("multilevel.coarse_density",
          rows1 > 0 ? static_cast<double>(hs.level_entries[1]) / (rows1 * rows1) : 1.0, "ratio");
  }
  graph::CrsMatrix changed = a;
  changed.values = reweighted_values(a, cfg.seed);
  std::uint64_t rebuild_digest = 0;

  std::vector<double> setup_ms, coarsen_ms, solve_ms, iter_ms, iterations, wave_ms, block_iters,
      rebuild_ms;
  std::vector<double> round_solve_p90;  ///< per round: p90 of that round's solves
  std::vector<std::uint64_t> solve_digests;
  std::vector<std::uint64_t> wave0_digests;
  std::vector<scalar_t> b(un);
  std::vector<scalar_t> x(un);
  std::vector<scalar_t> r;
  std::vector<scalar_t> bm(un * kBatch);
  std::vector<scalar_t> xm(un * kBatch);
  // Each round's cold setup serves that round's solves and then its block
  // wave, so the solve times sample as many set-ups (and their memory
  // placements) as the run has rounds.
  solver::SolveHandle solve_h;
  solver::SolveHandle batch_h = amg_handle("block-cg");
  std::size_t solves = 0;

  auto cold_setup = [&](std::size_t round) {
    solve_h = amg_handle("cg");
    bool ok = true;
    double ms = 0;
    try {
      ms = timed_ms("bench.amg_setup", [&] { solve_h.setup(a); });
    } catch (const std::exception& e) {
      ok = false;
      std::fprintf(stderr, "amg setup threw: %s\n", e.what());
    }
    if (t.check(ok && solve_h.preconditioner() != nullptr, "amg setup")) setup_ms.push_back(ms);
    // A fresh handle's first solve sizes its scratch: one untimed solve.
    solver::random_fill(b, rhs_seed(cfg.seed, (std::uint64_t{1} << 40) + round));
    solver::fill(x, 0.0);
    const bool converged = solve_h.solve(a, b, x, iopts).converged;
    t.check(converged && true_residual(a, b, x, r) <= kResidualLimit, "warm-up solve");
  };

  // The round's preconditioner moves to the block handle, its multi-vector
  // workspaces sized for the wave.
  auto hand_over = [&] {
    std::unique_ptr<solver::Preconditioner> p = solve_h.release_preconditioner();
    if (p) p->prepare_multi(n, kBatch);
    batch_h.adopt_preconditioner(std::move(p), a);
  };

  auto coarsen = [&] {
    const double ms = timed_ms("bench.coarsen", [&] { (void)topo.build(in.graph, topo_h); });
    const check::Result v = check::validate_steps(n, topo_h.steps());
    if (t.check(v.ok && !topo_h.steps().empty() && steps_digest(topo_h.steps()) == topo_digest,
                checked_what("coarsen", v, "hierarchy changed between builds"))) {
      coarsen_ms.push_back(ms);
    }
  };

  auto solve = [&] {
    const std::size_t i = solves++;
    solver::random_fill(b, rhs_seed(cfg.seed, i));
    solver::fill(x, 0.0);
    const solver::IterResult* result = nullptr;
    const double ms = timed_ms("bench.solve", [&] { result = &solve_h.solve(a, b, x, iopts); });
    const double res_true = true_residual(a, b, x, r);
    if (i < kBatch) solve_digests.push_back(check::digest(x));
    char what[96];
    std::snprintf(what, sizeof what, "solve %zu: converged=%d true residual %.3e", i,
                  result->converged ? 1 : 0, res_true);
    if (t.check(result->converged && res_true <= kResidualLimit, what)) {
      solve_ms.push_back(ms);
      iterations.push_back(result->iterations);
      iter_ms.push_back(ms / std::max(1, result->iterations));
    }
  };

  // Wave w solves right-hand sides w*8 .. w*8+7 of the single-RHS sequence.
  auto wave = [&](std::size_t w) {
    for (int c = 0; c < kBatch; ++c) {
      solver::random_fill(b, rhs_seed(cfg.seed, w * kBatch + static_cast<std::size_t>(c)));
      solver::scatter_column(b, n, kBatch, c, bm);
    }
    solver::fill(xm, 0.0);
    const solver::BatchResult* br = nullptr;
    const double ms =
        timed_ms("bench.batch_wave", [&] { br = &batch_h.solve_batch(a, bm, xm, kBatch, iopts); });
    bool ok = t.check(br->all_converged(), "batch wave " + std::to_string(w) + " did not converge");
    int iters = 0;
    for (int c = 0; c < kBatch; ++c) {
      iters = std::max(iters, br->results[static_cast<std::size_t>(c)].iterations);
      solver::gather_column(xm, n, kBatch, c, std::span<scalar_t>(x));
      solver::gather_column(bm, n, kBatch, c, std::span<scalar_t>(b));
      const double res_true = true_residual(a, b, x, r);
      ok = t.check(res_true <= kResidualLimit, "batch wave " + std::to_string(w) + " column " +
                                                   std::to_string(c) + ": true residual " +
                                                   std::to_string(res_true)) &&
           ok;
      if (w == 0) wave0_digests.push_back(check::digest(x));
    }
    if (ok) {
      wave_ms.push_back(ms);
      block_iters.push_back(iters);
    }
  };

  auto rebuild = [&] {
    const double ms = timed_ms("bench.rebuild_galerkin",
                               [&] { (void)galerkin.rebuild_galerkin(changed, gal_h); });
    const check::Result v = check::validate_hierarchy(gal_h.ops());
    const std::uint64_t d = ops_digest(gal_h.ops());
    if (rebuild_digest == 0) rebuild_digest = d;
    if (t.check(v.ok && d == rebuild_digest,
                checked_what("rebuild", v, "hierarchy changed between rebuilds"))) {
      rebuild_ms.push_back(ms);
    }
  };

  Budget budget(seconds);
  for (std::size_t round = 0; budget.more(round, 3, 1000); ++round) {
    cold_setup(round);
    for (int i = 0; i < kCoarsensPerRound; ++i) coarsen();
    const std::size_t first_solve = solve_ms.size();
    for (int i = 0; i < kSolvesPerRound; ++i) solve();
    if (round == 0) {
      while (solves < kBatch) solve();  // wave 0's single-RHS twins
    }
    round_solve_p90.push_back(quantile(
        std::vector<double>(solve_ms.begin() + static_cast<std::ptrdiff_t>(first_solve),
                            solve_ms.end()),
        0.9));
    hand_over();
    wave(round);
    rebuild();
    if (between) budget.exclude(between);
  }
  res.digests.emplace_back("galerkin_hierarchy", rebuild_digest);

  // The benchmark's Galerkin hierarchy (build_galerkin_ms, rebuild_ms) is
  // the one the AMG setup builds for the solves.
  {
    const auto* amg = dynamic_cast<const solver::AmgHierarchy*>(batch_h.preconditioner());
    const multilevel::HierarchyStats& g = gal_h.build_stats();
    t.check(amg != nullptr && amg->hierarchy_stats().level_rows == g.level_rows &&
                amg->hierarchy_stats().level_entries == g.level_entries,
            "the benchmark's Galerkin hierarchy differs from the AMG setup's");
  }

  // The first wave's columns equal the single-RHS solves of the same seeds.
  std::uint64_t sol = 0;
  for (int c = 0; c < kBatch; ++c) {
    const std::uint64_t d = solve_digests[static_cast<std::size_t>(c)];
    t.check(wave0_digests[static_cast<std::size_t>(c)] == d,
            "batch column " + std::to_string(c) + " differs from its single-RHS solve");
    sol = check::digest_combine(sol, d);
  }
  res.digests.emplace_back("solution", sol);

  // One V-cycle of the set-up AMG hierarchy.
  std::vector<double> apply_ms;
  solver::random_fill(b, rhs_seed(cfg.seed, 0));
  for (int i = 0; i < 7; ++i) {
    apply_ms.push_back(
        timed_ms("bench.prec_apply", [&] { batch_h.preconditioner()->apply(b, x); }));
  }
  t.check(check::all_finite(x), "amg V-cycle produced a non-finite value");

  m.put("setup_s", median(setup_ms) / 1e3, "s");
  m.put("coarsen_ms", median(coarsen_ms), "ms");
  m.put("solve_ms_p50", quantile(solve_ms, 0.5), "ms");
  // The median over rounds: a burst of outside load that slows the solves
  // of a few rounds moves it less than the pooled p90.
  m.put("solve_ms_p90", median(round_solve_p90), "ms");
  const double wave_med = median(wave_ms);
  m.put("batch_solves_per_s", wave_med > 0 ? kBatch * 1e3 / wave_med : 0.0, "1/s");
  m.put("rebuild_ms", median(rebuild_ms), "ms");
  m.put("solve.samples", static_cast<double>(solve_ms.size()), "count");
  m.put("setup.samples", static_cast<double>(setup_ms.size()), "count");
  m.put("solver.iterations", median(iterations), "count");
  m.put("solver.iter_ms", median(iter_ms), "ms");
  m.put("solver.prec_apply_ms", median(apply_ms), "ms");
  m.put("solver.block_iterations", median(block_iters), "count");
}

}  // namespace perfbench
