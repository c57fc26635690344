#pragma once
/// \file preconditioner.hpp
/// \brief Abstract preconditioner interface shared by the outer solvers.
///
/// Concrete implementations are selected by name through the
/// string-keyed registry in solver/interface.hpp ("none", "jacobi", "gs",
/// "cluster-gs", "amg") and cached per matrix by `SolveHandle`.

#include <algorithm>
#include <span>
#include <string>

#include "common/config.hpp"

namespace parmis::solver {

/// Applies Z = M^{-1} R for some approximation M of the system matrix.
///
/// There is one apply, over n x k_count row-major multi-vectors (element
/// (i, c) at `i * k_count + c`); single-RHS is its K=1 call. Column c of
/// Z is bit-identical to the K=1 apply on the gathered column — every
/// registered preconditioner is columnwise-independent, so a NaN-poisoned
/// column can never contaminate its batchmates.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// Z = M^{-1} R for n x k_count row-major multi-vectors.
  virtual void apply(std::span<const scalar_t> r, std::span<scalar_t> z, ordinal_t n,
                     int k_count) const = 0;

  /// Single-RHS apply: the K=1 call.
  void apply(std::span<const scalar_t> r, std::span<scalar_t> z) const {
    apply(r, z, static_cast<ordinal_t>(r.size()), 1);
  }

  /// Pre-size any internal scratch for batches of width `k_count` on an
  /// n-row system, so a subsequent apply at that width (or narrower)
  /// allocates nothing. Returns true when scratch grew — `SolveHandle`
  /// calls this before the batched solve's zero-allocation window and
  /// treats growth like workspace growth (exempt). The default covers
  /// implementations without width-dependent state.
  virtual bool prepare_multi(ordinal_t /*n*/, int /*k_count*/) { return false; }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// No-op preconditioner (M = I).
class IdentityPreconditioner final : public Preconditioner {
 public:
  using Preconditioner::apply;
  void apply(std::span<const scalar_t> r, std::span<scalar_t> z, ordinal_t n,
             int k_count) const override {
    const std::size_t nk = static_cast<std::size_t>(n) * static_cast<std::size_t>(k_count);
    std::copy_n(r.begin(), nk, z.begin());
  }
  [[nodiscard]] std::string name() const override { return "identity"; }
};

}  // namespace parmis::solver
