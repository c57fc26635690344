#pragma once
/// \file spmv.hpp
/// \brief Sparse matrix-vector product, the solver substrate workhorse:
/// the K=1 call of `spmm`.

#include <span>

#include "graph/crs.hpp"
#include "graph/spmm.hpp"

namespace parmis::graph {

/// y = A * x. Parallel over rows; each row accumulates serially in entry
/// order, so the result is deterministic for any thread count.
inline void spmv(const CrsMatrix& a, std::span<const scalar_t> x, std::span<scalar_t> y) {
  spmm(a, x, y, 1);
}

/// y = alpha * A * x + beta * y.
inline void spmv(scalar_t alpha, const CrsMatrix& a, std::span<const scalar_t> x, scalar_t beta,
                 std::span<scalar_t> y) {
  spmm(alpha, a, x, beta, y, 1);
}

}  // namespace parmis::graph
