#pragma once
/// \file gauss_seidel.hpp
/// \brief Gauss-Seidel sweeps: serial reference and point multicolor
/// (Deveci et al., the paper's prior-art preconditioner).
///
/// Classical GS updates `x_i = (b_i - sum_{j != i} a_ij x_j) / a_ii` in row
/// order and is inherently sequential. Point multicolor GS colors the
/// matrix graph and updates each color class in parallel: rows of one color
/// share no off-diagonal coupling, so the parallel update within a class is
/// exactly GS restricted to that ordering. The cost is more solver
/// iterations than sequential GS — the gap cluster multicolor GS
/// (cluster_gs.hpp) closes.

#include <span>
#include <vector>

#include "coloring/d1_coloring.hpp"
#include "graph/crs.hpp"
#include "parallel/context.hpp"
#include "solver/preconditioner.hpp"
#include "solver/vector_ops.hpp"

namespace parmis::solver {

enum class SweepDirection { Forward, Backward };

/// One serial Gauss-Seidel sweep (reference implementation).
void serial_gs_sweep(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                     std::span<scalar_t> x, SweepDirection dir);

/// Point multicolor Gauss-Seidel setup: a distance-1 coloring of A's
/// graph plus the color classes and inverted diagonal.
class PointMulticolorGS {
 public:
  /// Color A's adjacency (parallel, deterministic) and cache the classes;
  /// setup runs under `ctx`.
  explicit PointMulticolorGS(const graph::CrsMatrix& a,
                             const Context& ctx = Context::default_ctx());

  /// One multicolor sweep: colors ascending (Forward) or descending
  /// (Backward); rows within a color update in parallel.
  void sweep(const graph::CrsMatrix& a, std::span<const scalar_t> b, std::span<scalar_t> x,
             SweepDirection dir) const;

  /// Symmetric sweep (forward then backward) — "point multicolor SGS".
  void symmetric_sweep(const graph::CrsMatrix& a, std::span<const scalar_t> b,
                       std::span<scalar_t> x) const;

  [[nodiscard]] ordinal_t num_colors() const { return coloring_.num_colors; }
  [[nodiscard]] double setup_seconds() const { return setup_seconds_; }

 private:
  coloring::Coloring coloring_;
  coloring::ColorSets sets_;
  std::vector<scalar_t> inv_diag_;
  double setup_seconds_{0};
};

/// Grows `scratch` to what `symmetric_gs_apply` needs at batch width
/// `k_count` on n rows; true when it grew.
inline bool grow_column_scratch(std::vector<scalar_t>& scratch, ordinal_t n, int k_count) {
  const std::size_t need = k_count > 1 ? 2 * static_cast<std::size_t>(n) : 0;
  if (scratch.size() >= need) return false;
  scratch.resize(need);
  return true;
}

/// The apply shared by "gs" and "cluster-gs": `sweeps` symmetric sweeps
/// of `gs` on A Z = R from Z = 0, over n x k_count row-major
/// multi-vectors. Gauss-Seidel updates are sequential within a column, so
/// a batch sweeps one column at a time, gathered into `scratch` (grown on
/// first use; `prepare_multi` sizes it up front). K=1 sweeps in place.
template <class Gs>
void symmetric_gs_apply(const Gs& gs, const graph::CrsMatrix& a, int sweeps,
                        std::span<const scalar_t> r, std::span<scalar_t> z, ordinal_t n,
                        int k_count, std::vector<scalar_t>& scratch) {
  const std::size_t un = static_cast<std::size_t>(n);
  const auto run = [&](std::span<const scalar_t> rc, std::span<scalar_t> zc) {
    fill(zc, 0.0);
    for (int s = 0; s < sweeps; ++s) gs.symmetric_sweep(a, rc, zc);
  };
  if (k_count == 1) {
    run(r.subspan(0, un), z.subspan(0, un));
    return;
  }
  (void)grow_column_scratch(scratch, n, k_count);
  const std::size_t uk = static_cast<std::size_t>(k_count);
  const std::span<scalar_t> rc(scratch.data(), un);
  const std::span<scalar_t> zc(scratch.data() + un, un);
  for (std::size_t c = 0; c < uk; ++c) {
    for (std::size_t i = 0; i < un; ++i) rc[i] = r[i * uk + c];
    run(rc, zc);
    for (std::size_t i = 0; i < un; ++i) z[i * uk + c] = zc[i];
  }
}

/// Preconditioner adapter: z = M^{-1} r approximated by `sweeps` symmetric
/// point-multicolor GS sweeps on A z = r starting from z = 0.
class PointGsPreconditioner final : public Preconditioner {
 public:
  PointGsPreconditioner(const graph::CrsMatrix& a, int sweeps = 1,
                        const Context& ctx = Context::default_ctx())
      : a_(a), gs_(a, ctx), sweeps_(sweeps) {}

  using Preconditioner::apply;
  void apply(std::span<const scalar_t> r, std::span<scalar_t> z, ordinal_t n,
             int k_count) const override {
    symmetric_gs_apply(gs_, a_, sweeps_, r, z, n, k_count, columns_);
  }
  bool prepare_multi(ordinal_t n, int k_count) override {
    return grow_column_scratch(columns_, n, k_count);
  }
  [[nodiscard]] std::string name() const override { return "point-multicolor-sgs"; }
  [[nodiscard]] const PointMulticolorGS& gs() const { return gs_; }

 private:
  const graph::CrsMatrix& a_;
  PointMulticolorGS gs_;
  int sweeps_;
  mutable std::vector<scalar_t> columns_;  ///< batch column gather buffers
};

}  // namespace parmis::solver
