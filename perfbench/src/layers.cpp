/// \file layers.cpp
/// \brief Per-layer kernels of the traced run. Each call into a layer sits
/// in a benchmark span; the four kernels the ROADMAP sweeps (MIS-2, spmv,
/// spmm K=8, SpGEMM) are also timed at 1 thread and at nproc threads
/// through Context::openmp, with scaling efficiency t1 / (N * tN). Bytes
/// and flops are computed from the CRS structures, not measured.

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "check/digest.hpp"
#include "check/validate.hpp"
#include "core/aggregation.hpp"
#include "core/mis2.hpp"
#include "core/verify.hpp"
#include "graph/spgemm.hpp"
#include "graph/spmm.hpp"
#include "graph/spmv.hpp"
#include "harness.hpp"
#include "multilevel/builder.hpp"
#include "parallel/context.hpp"
#include "solver/vector_ops.hpp"

namespace perfbench {

using namespace parmis;

namespace {

constexpr int kSpmmWidth = 8;

/// Median wall time (ms) of `reps` calls of `fn`, each in a span.
template <typename F>
double median_ms(const char* span, int reps, F&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) ms.push_back(timed_ms(span, fn));
  return median(ms);
}

/// 2 * sum over stored (i, k) of A of nnz(row k of B): the multiply-adds
/// of A * B counted from the structures.
double spgemm_flops(const graph::CrsMatrix& a, const graph::CrsMatrix& b) {
  double f = 0;
  for (ordinal_t k : a.entries) {
    f += static_cast<double>(b.row_map[static_cast<std::size_t>(k) + 1] -
                             b.row_map[static_cast<std::size_t>(k)]);
  }
  return 2 * f;
}

void put_sweep(Metrics& m, const std::string& name, double t1, double tn, int nthreads) {
  m.put(name + ".t1", t1, "ms");
  m.put(name + ".tN", tn, "ms");
  m.put(name + ".eff", tn > 0 ? t1 / (nthreads * tn) : 0.0, "ratio");
}

}  // namespace

void run_layers(const RunConfig& cfg, const Inputs& in, Results& res) {
  Metrics& m = res.metrics;
  Tally& t = res.tally;
  const graph::CrsMatrix& a = in.a;
  const std::size_t un = static_cast<std::size_t>(a.num_rows);
  const int nthreads = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const Context ctx_def = Context::default_ctx();
  const Context ctx_1 = Context::openmp(1);
  const Context ctx_n = Context::openmp(nthreads);
  const int reps = cfg.small ? 3 : 7;

  // --- core: MIS-2 and MIS-2 aggregation -----------------------------------
  {
    std::uint64_t expect = 0;
    auto mis2_at = [&](const Context& ctx, const char* label) {
      core::Mis2Handle h(core::Mis2Options{}, ctx);
      (void)h.run(in.graph);  // warm the handle's scratch
      const double ms = median_ms("bench.core.mis2", reps, [&] { (void)h.run(in.graph); });
      const core::Mis2Result& r = h.result();
      const std::uint64_t d = check::digest(r.in_set);
      if (expect == 0) expect = d;
      t.check(core::verify_mis2(in.graph, r.in_set) && d == expect,
              std::string("mis2 at ") + label + ": invalid or thread-dependent set");
      return ms;
    };
    const double def = mis2_at(ctx_def, "default");
    {
      core::Mis2Handle h(core::Mis2Options{}, ctx_def);
      const core::Mis2Result& r = h.run(in.graph);
      m.put("core.mis2_rounds", r.iterations, "count");
      m.put("core.mis2_size", r.set_size(), "count");
    }
    m.put("core.mis2_ms", def, "ms");
    const double t1 = mis2_at(ctx_1, "1 thread");
    const double tn = mis2_at(ctx_n, "N threads");
    put_sweep(m, "core.mis2_ms", t1, tn, nthreads);

    core::Aggregation agg;
    m.put("core.aggregate_ms",
          median_ms("bench.core.aggregate", reps, [&] { agg = core::aggregate_mis2(in.graph); }),
          "ms");
    const check::Result v = check::validate(agg, a.num_rows);
    t.check(v.ok, "aggregate_mis2: " + v.diagnostic());
    m.put("core.aggregates", agg.num_aggregates, "count");
  }

  // --- graph: spmv and spmm on A -------------------------------------------
  {
    const std::vector<scalar_t> x = solver::random_vector(a.num_rows, cfg.seed);
    std::vector<scalar_t> y(un);
    std::vector<scalar_t> xm(un * kSpmmWidth);
    std::vector<scalar_t> ym(un * kSpmmWidth);
    for (std::size_t i = 0; i < xm.size(); ++i) xm[i] = x[i / kSpmmWidth] * (1 + i % kSpmmWidth);
    const int kreps = cfg.small ? 5 : 31;

    std::uint64_t spmv_expect = 0;
    std::uint64_t spmm_expect = 0;
    auto kernels_at = [&](const Context& ctx, double& spmv_ms, double& spmm_ms) {
      const Context::Scope scope(ctx);
      spmv_ms = median_ms("bench.graph.spmv", kreps, [&] { graph::spmv(a, x, y); });
      spmm_ms = median_ms("bench.graph.spmm8", kreps,
                          [&] { graph::spmm(a, xm, ym, kSpmmWidth); });
      const std::uint64_t dv = check::digest(y);
      const std::uint64_t dm = check::digest(ym);
      if (spmv_expect == 0) {
        spmv_expect = dv;
        spmm_expect = dm;
      }
      t.check(dv == spmv_expect && dm == spmm_expect, "spmv/spmm results depend on threads");
    };
    double v_def = 0, mm_def = 0, v1 = 0, mm1 = 0, vn = 0, mmn = 0;
    kernels_at(ctx_def, v_def, mm_def);
    kernels_at(ctx_1, v1, mm1);
    kernels_at(ctx_n, vn, mmn);
    // Column 0 of the K=8 product equals spmv of column 0 (x itself).
    std::vector<scalar_t> col(un);
    for (std::size_t i = 0; i < un; ++i) col[i] = ym[i * kSpmmWidth];
    t.check(check::digest(col) == check::digest(y), "spmm column 0 differs from spmv");

    const double vec = static_cast<double>(un * sizeof(scalar_t));
    const double spmv_bytes = matrix_bytes(a) + 2 * vec;
    const double spmm_bytes = matrix_bytes(a) + 2 * vec * kSpmmWidth;
    m.put("graph.spmv_ms", v_def, "ms");
    m.put("graph.spmv_gbps", spmv_bytes / (v_def * 1e6), "GB/s");
    m.put("graph.spmm8_ms", mm_def, "ms");
    m.put("graph.spmm8_gbps", spmm_bytes / (mm_def * 1e6), "GB/s");
    put_sweep(m, "graph.spmv_ms", v1, vn, nthreads);
    put_sweep(m, "graph.spmm8_ms", mm1, mmn, nthreads);
  }

  // --- graph: level-0 R*(A*P) and P transpose on the built hierarchy -------
  {
    multilevel::HierarchyHandle h;
    (void)multilevel::Builder(galerkin_options()).build_galerkin(a, h);
    const std::vector<multilevel::OperatorLevel>& ops = h.ops();
    if (!t.check(ops.size() > 1, "hierarchy has no coarse level")) return;
    const graph::CrsMatrix& a0 = ops[0].a;
    const graph::CrsMatrix& p0 = ops[0].p;
    const graph::CrsMatrix& r0 = ops[0].r;

    graph::CrsMatrix pt;
    m.put("graph.transpose_ms",
          median_ms("bench.graph.transpose", reps, [&] { pt = graph::transpose_matrix(p0); }),
          "ms");
    t.check(check::digest(pt) == check::digest(r0), "transpose(P) differs from R");

    std::uint64_t expect = 0;
    graph::CrsMatrix rap;
    auto spgemm_at = [&](const Context& ctx) {
      const Context::Scope scope(ctx);
      // Three repeats: on the power-law inputs one product takes seconds.
      const double ms = median_ms("bench.graph.spgemm", 3, [&] {
        const graph::CrsMatrix ap = graph::spgemm(a0, p0);
        rap = graph::spgemm(r0, ap);
      });
      const std::uint64_t d = check::digest(rap);
      if (expect == 0) expect = d;
      const check::Result v = check::validate(rap);
      t.check(v.ok && d == expect && rap.num_entries() == ops[1].a.num_entries(),
              "spgemm R*(A*P): " + (v.ok ? std::string("thread-dependent or wrong nnz")
                                         : v.diagnostic()));
      return ms;
    };
    const double def = spgemm_at(ctx_def);
    const double t1 = spgemm_at(ctx_1);
    const double tn = spgemm_at(ctx_n);
    const graph::CrsMatrix ap = graph::spgemm(a0, p0);
    const double flops = spgemm_flops(a0, p0) + spgemm_flops(r0, ap);
    m.put("graph.spgemm_ms", def, "ms");
    m.put("graph.spgemm_mflops", flops / (def * 1e3), "Mflop/s");
    put_sweep(m, "graph.spgemm_ms", t1, tn, nthreads);
  }
}

}  // namespace perfbench
