/// \file kernels_avx2.cpp
/// \brief AVX2 (4-wide double) backend.
///
/// Compiled with -mavx2 (and only this TU — the dispatcher probes the
/// CPU before ever calling in here).  Bit-equivalence with the reference
/// twins is load-bearing, not best-effort: every kernel vectorizes
/// across *independent* output elements (centroids, grid cells, matrix
/// columns) or keeps the reference's fixed 4-lane summation tree, so
/// each scalar FP chain executes the same operations in the same order
/// as kernels_ref.cpp.  The module is built with FP contraction off and
/// without FMA codegen, so mul+add never fuses behind our back.

#include "kernels/detail.hpp"

// Without the build-level opt-in this TU compiles to nothing, keeping
// non-x86 builds working with no CMake special-casing beyond the flag.
#if PEACHY_HAVE_AVX2

#include <immintrin.h>

#include <limits>

#include "kernels/kernels.hpp"

namespace peachy::kernels::detail::avx2 {

namespace {

/// Lane-wise extract of a ymm register of partial sums.
struct Lanes {
  alignas(32) double v[4];
  explicit Lanes(__m256d r) { _mm256_store_pd(v, r); }
};

}  // namespace

double squared_distance(const double* a, const double* b, std::size_t d) {
  // One register holds the reference's four partial sums (lane = i mod 4).
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const __m256d diff = _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
  }
  const Lanes s{acc};
  double s0 = s.v[0], s1 = s.v[1], s2 = s.v[2], s3 = s.v[3];
  if (i < d) {
    const double d0 = a[i] - b[i];
    s0 += d0 * d0;
  }
  if (i + 1 < d) {
    const double d1 = a[i + 1] - b[i + 1];
    s1 += d1 * d1;
  }
  if (i + 2 < d) {
    const double d2 = a[i + 2] - b[i + 2];
    s2 += d2 * d2;
  }
  return (s0 + s1) + (s2 + s3);
}

double dot(const double* a, const double* b, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  const Lanes s{acc};
  double s0 = s.v[0], s1 = s.v[1], s2 = s.v[2], s3 = s.v[3];
  if (i < n) s0 += a[i] * b[i];
  if (i + 1 < n) s1 += a[i + 1] * b[i + 1];
  if (i + 2 < n) s2 += a[i + 2] * b[i + 2];
  return (s0 + s1) + (s2 + s3);
}

void squared_distances_rows(const double* pts, std::size_t n, std::size_t d, const double* q,
                            double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = squared_distance(pts + i * d, q, d);
  }
}

void axpy(double* y, const double* x, double a, std::size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(av, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

namespace {

/// Distances from q to the 4 centroids of panel group g, as one register.
/// Per lane this is the reference's single running sum over ascending j.
/// always_inline: with three call sites (batch, blocked tile, argmin) the
/// inliner otherwise outlines this into a real call inside every hot
/// distance loop — a measured ~20% hit on the d8/d32 distance kernels.
[[gnu::always_inline]] inline __m256d group_distances(const double* q, std::size_t d,
                                                      const double* grp) {
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t j = 0; j < d; ++j) {
    const __m256d diff =
        _mm256_sub_pd(_mm256_set1_pd(q[j]), _mm256_loadu_pd(grp + j * kPanelLane));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
  }
  return acc;
}

}  // namespace

void squared_distances_batch(const double* q, std::size_t d, const double* panel,
                             std::size_t k, std::size_t kp, double* out) {
  for (std::size_t g = 0; g * kPanelLane < kp; ++g) {
    const __m256d dist = group_distances(q, d, panel + g * d * kPanelLane);
    const std::size_t c0 = g * kPanelLane;
    if (c0 + kPanelLane <= k) {
      _mm256_storeu_pd(out + c0, dist);
    } else {
      const Lanes s{dist};
      for (std::size_t lane = 0; c0 + lane < k; ++lane) out[c0 + lane] = s.v[lane];
    }
  }
}

void squared_distances_tile(const double* pts, std::size_t n, std::size_t d,
                            const double* panel, std::size_t k, std::size_t kp, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    squared_distances_batch(pts + i * d, d, panel, k, kp, out + i * k);
  }
}

std::size_t argmin_batch(const double* q, std::size_t d, const double* panel, std::size_t k,
                         std::size_t kp, double* best_d2) {
  // The d-loop (the hot part) is vectorized per group; the 4-lane scan
  // stays scalar so the reference's ascending-index strict-< tie-break
  // is preserved verbatim.
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_idx = 0;
  for (std::size_t g = 0; g * kPanelLane < kp; ++g) {
    const Lanes s{group_distances(q, d, panel + g * d * kPanelLane)};
    const std::size_t c0 = g * kPanelLane;
    for (std::size_t lane = 0; lane < kPanelLane && c0 + lane < k; ++lane) {
      if (s.v[lane] < best) {
        best = s.v[lane];
        best_idx = c0 + lane;
      }
    }
  }
  if (best_d2 != nullptr) *best_d2 = best;
  return best_idx;
}

std::size_t argmin_assign(const double* pts, std::size_t n, std::size_t d, const double* panel,
                          std::size_t k, std::size_t kp, std::int32_t* assignment, double* sums,
                          std::int64_t* counts) {
  std::size_t changes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* p = pts + i * d;
    const std::size_t best = argmin_batch(p, d, panel, k, kp, nullptr);
    if (assignment[i] != static_cast<std::int32_t>(best)) {
      assignment[i] = static_cast<std::int32_t>(best);
      ++changes;
    }
    double* dst = sums + best * d;
    std::size_t j = 0;
    for (; j + 4 <= d; j += 4) {
      _mm256_storeu_pd(dst + j,
                       _mm256_add_pd(_mm256_loadu_pd(dst + j), _mm256_loadu_pd(p + j)));
    }
    for (; j < d; ++j) dst[j] += p[j];
    ++counts[best];
  }
  return changes;
}

void stencil_row(double* dst, const double* src, std::size_t n, double alpha) {
  const __m256d av = _mm256_set1_pd(alpha);
  const __m256d two = _mm256_set1_pd(2.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d left = _mm256_loadu_pd(src + i - 1);
    const __m256d mid = _mm256_loadu_pd(src + i);
    const __m256d right = _mm256_loadu_pd(src + i + 1);
    const __m256d lap =
        _mm256_add_pd(_mm256_sub_pd(left, _mm256_mul_pd(two, mid)), right);
    _mm256_storeu_pd(dst + i, _mm256_add_pd(mid, _mm256_mul_pd(av, lap)));
  }
  for (; i < n; ++i) {
    dst[i] = src[i] + alpha * ((src[i - 1] - 2.0 * src[i]) + src[i + 1]);
  }
}

namespace {

/// MR×NR register-tile micro-kernel: MR×(NR/4) ymm accumulators per
/// tile, k ascending, so each C element's chain is exactly the reference
/// i-k-j running sum.  Tails fall back to the reference loop structure
/// (innermost j elementwise, k ascending) which keeps the same
/// per-element chains.  MR/NR are compile-time so the accumulator array
/// lives entirely in registers; the constexpr loops below fully unroll.
template <std::size_t MR, std::size_t NR>
void gemm_tile(const double* a, const double* b, double* c, std::size_t n, std::size_t k,
               std::size_t m) {
  static_assert(NR % 4 == 0, "gemm tile width must be a whole number of ymm lanes");
  constexpr std::size_t kCols = NR / 4;
  std::size_t i0 = 0;
  for (; i0 + MR <= n; i0 += MR) {
    std::size_t j0 = 0;
    for (; j0 + NR <= m; j0 += NR) {
      __m256d acc[MR][kCols];
      for (std::size_t r = 0; r < MR; ++r) {
        for (std::size_t cc = 0; cc < kCols; ++cc) {
          acc[r][cc] = _mm256_loadu_pd(c + (i0 + r) * m + j0 + cc * 4);
        }
      }
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double* brow = b + kk * m + j0;
        __m256d bv[kCols];
        for (std::size_t cc = 0; cc < kCols; ++cc) bv[cc] = _mm256_loadu_pd(brow + cc * 4);
        for (std::size_t r = 0; r < MR; ++r) {
          const __m256d av = _mm256_set1_pd(a[(i0 + r) * k + kk]);
          for (std::size_t cc = 0; cc < kCols; ++cc) {
            acc[r][cc] = _mm256_add_pd(acc[r][cc], _mm256_mul_pd(av, bv[cc]));
          }
        }
      }
      for (std::size_t r = 0; r < MR; ++r) {
        for (std::size_t cc = 0; cc < kCols; ++cc) {
          _mm256_storeu_pd(c + (i0 + r) * m + j0 + cc * 4, acc[r][cc]);
        }
      }
    }
    if (j0 < m) {
      for (std::size_t r = 0; r < MR; ++r) {
        const double* arow = a + (i0 + r) * k;
        double* crow = c + (i0 + r) * m;
        for (std::size_t kk = 0; kk < k; ++kk) {
          const double aik = arow[kk];
          const double* brow = b + kk * m;
          for (std::size_t j = j0; j < m; ++j) crow[j] += aik * brow[j];
        }
      }
    }
  }
  for (; i0 < n; ++i0) {
    const double* arow = a + i0 * k;
    double* crow = c + i0 * m;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aik = arow[kk];
      const double* brow = b + kk * m;
      for (std::size_t j = 0; j < m; ++j) crow[j] += aik * brow[j];
    }
  }
}

}  // namespace

void gemm_block(const double* a, const double* b, double* c, std::size_t n, std::size_t k,
                std::size_t m) {
  gemm_tile<4, 8>(a, b, c, n, k, m);
}

}  // namespace peachy::kernels::detail::avx2

#endif  // PEACHY_HAVE_AVX2
