// Small dense linear algebra: just what the supervisors and surrogate
// explainers need (SPD Cholesky solves, Gaussian elimination).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sx::util {

/// Row-major square matrix helper.
struct SquareMatrix {
  std::size_t n = 0;
  std::vector<double> a;  // n*n, row-major

  explicit SquareMatrix(std::size_t dim) : n(dim), a(dim * dim, 0.0) {}

  double& at(std::size_t r, std::size_t c) { return a[r * n + c]; }
  double at(std::size_t r, std::size_t c) const { return a[r * n + c]; }
};

/// In-place Cholesky factorization A = L L^T of a symmetric positive-definite
/// matrix (lower triangle written, upper untouched). Returns false if the
/// matrix is not positive definite (after adding `jitter` to the diagonal).
bool cholesky(SquareMatrix& m, double jitter = 0.0);

/// Solves L L^T x = b given the Cholesky factor in `m`'s lower triangle.
std::vector<double> cholesky_solve(const SquareMatrix& chol,
                                   std::vector<double> b);

/// x^T A^{-1} x via two triangular solves with the Cholesky factor.
double mahalanobis_sq(const SquareMatrix& chol,
                      const std::vector<double>& x);

/// mahalanobis_sq() without the copy: solves L y = x in place (x is
/// overwritten by y) and returns y . y, bitwise equal to mahalanobis_sq.
/// Precondition: x.size() == chol.n. No allocation, no throw.
double mahalanobis_sq_in_place(const SquareMatrix& chol,
                               std::span<double> x) noexcept;

}  // namespace sx::util
