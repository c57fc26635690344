#pragma once
/// \file spmm.hpp
/// \brief Sparse matrix × dense multi-vector product (SpMM), the batched
/// solving workhorse.
///
/// One matrix traversal feeds K right-hand sides: `x` and `y` are dense
/// row-major multi-vectors (element (i, k) at `i * k_count + k`), so each
/// CRS row read is amortized over K accumulators and the random accesses
/// into `x` touch K consecutive scalars per cache line. Column k of the
/// result is bit-identical to the K=1 call (`spmv`) on column k alone: each
/// row still accumulates serially in entry order, per column.

#include <span>

#include "graph/crs.hpp"

namespace parmis::graph {

/// Y = A * X for K column vectors stored row-major. Parallel over rows via
/// the cost-balanced row partition of `par::balanced_for` (deterministic
/// for any backend, schedule, and thread count).
void spmm(const CrsMatrix& a, std::span<const scalar_t> x, std::span<scalar_t> y, int k_count);

/// Y = alpha * A * X + beta * Y, row-major multi-vectors.
void spmm(scalar_t alpha, const CrsMatrix& a, std::span<const scalar_t> x, scalar_t beta,
          std::span<scalar_t> y, int k_count);

}  // namespace parmis::graph
