// AVX2+FMA backend. Compiled only when the toolchain accepts -mavx2 -mfma
// (see src/nn/CMakeLists.txt); selected at runtime only when the CPU
// reports AVX2 support.
//
// Rounding relative to the scalar reference:
//   - gemm / gemm_trans_a / axpy / layer_norm vectorize the elementwise
//     dimension and keep the scalar per-element accumulation ORDER, but not
//     its roundings: the scalar backend is compiled without -mfma, so its
//     a*b+c is two roundings where these kernels fuse one. Each partial
//     product moves by <= 1/2 ulp, keeping the result within a few ulps AT
//     THE SCALE OF THE OPERANDS — under cancellation the relative gap can
//     be large, which is why tests/kernels_test.cc measures ulps-at-scale,
//     not per-element ulp distance.
//   - dot / gemm_trans_b / attention scores additionally use vector partial
//     sums with a tree reduction, which reorders the scalar left-to-right
//     chain. Same pinned ulps-at-scale bound covers them.
//   - integer kernels (quantize_i8, gemm_i8) are exact and bit-identical.
//   - adam_update is exact too: it keeps every scalar rounding and fuses
//     nothing (see NoFuse).
// Within THIS backend every kernel is deterministic: blocking (RowQuad vs
// RowChunk vs scalar tail) never changes the per-element k-order for float,
// and integer accumulation is exact, so any tiling is bit-stable.

#include "nn/kernels/backend.h"

#if defined(FIELDSWAP_KERNELS_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace fieldswap {
namespace nn {
namespace {

/// One C row chunk of up to 8 ymm registers (64 columns) held in registers
/// across the whole k loop: C traffic drops from O(m*k*n) to O(m*n).
void Avx2GemmRowChunk(const float* arow, const float* b, float* crow, int k,
                      int n, int j0, int width, bool accumulate) {
  __m256 acc[8];
  const int vecs = width / 8;
  for (int v = 0; v < vecs; ++v) {
    acc[v] = accumulate ? _mm256_loadu_ps(crow + j0 + v * 8)
                        : _mm256_setzero_ps();
  }
  for (int p = 0; p < k; ++p) {
    const __m256 av = _mm256_set1_ps(arow[p]);
    const float* brow = b + static_cast<size_t>(p) * n + j0;
    for (int v = 0; v < vecs; ++v) {
      acc[v] = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + v * 8), acc[v]);
    }
  }
  for (int v = 0; v < vecs; ++v) {
    _mm256_storeu_ps(crow + j0 + v * 8, acc[v]);
  }
}

/// 4x2 register tile (4 C rows x 16 columns): every B load feeds four FMA
/// chains instead of one, so the kernel is FMA-bound rather than
/// load-bound. Per C element the k loop is still a single sequential FMA
/// chain — bit-identical to Avx2GemmRowChunk and to any tile shape.
void Avx2GemmRowQuad(const float* a, const float* b, float* c, int k, int n,
                     size_t lda_rows, int i0, int j0, bool accumulate) {
  const float* a0 = a + static_cast<size_t>(i0) * lda_rows;
  const float* a1 = a0 + lda_rows;
  const float* a2 = a1 + lda_rows;
  const float* a3 = a2 + lda_rows;
  float* c0 = c + static_cast<size_t>(i0) * n + j0;
  float* c1 = c0 + n;
  float* c2 = c1 + n;
  float* c3 = c2 + n;
  __m256 acc00, acc01, acc10, acc11, acc20, acc21, acc30, acc31;
  if (accumulate) {
    acc00 = _mm256_loadu_ps(c0);
    acc01 = _mm256_loadu_ps(c0 + 8);
    acc10 = _mm256_loadu_ps(c1);
    acc11 = _mm256_loadu_ps(c1 + 8);
    acc20 = _mm256_loadu_ps(c2);
    acc21 = _mm256_loadu_ps(c2 + 8);
    acc30 = _mm256_loadu_ps(c3);
    acc31 = _mm256_loadu_ps(c3 + 8);
  } else {
    acc00 = acc01 = acc10 = acc11 = _mm256_setzero_ps();
    acc20 = acc21 = acc30 = acc31 = _mm256_setzero_ps();
  }
  for (int p = 0; p < k; ++p) {
    const float* brow = b + static_cast<size_t>(p) * n + j0;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    __m256 av = _mm256_set1_ps(a0[p]);
    acc00 = _mm256_fmadd_ps(av, b0, acc00);
    acc01 = _mm256_fmadd_ps(av, b1, acc01);
    av = _mm256_set1_ps(a1[p]);
    acc10 = _mm256_fmadd_ps(av, b0, acc10);
    acc11 = _mm256_fmadd_ps(av, b1, acc11);
    av = _mm256_set1_ps(a2[p]);
    acc20 = _mm256_fmadd_ps(av, b0, acc20);
    acc21 = _mm256_fmadd_ps(av, b1, acc21);
    av = _mm256_set1_ps(a3[p]);
    acc30 = _mm256_fmadd_ps(av, b0, acc30);
    acc31 = _mm256_fmadd_ps(av, b1, acc31);
  }
  _mm256_storeu_ps(c0, acc00);
  _mm256_storeu_ps(c0 + 8, acc01);
  _mm256_storeu_ps(c1, acc10);
  _mm256_storeu_ps(c1 + 8, acc11);
  _mm256_storeu_ps(c2, acc20);
  _mm256_storeu_ps(c2 + 8, acc21);
  _mm256_storeu_ps(c3, acc30);
  _mm256_storeu_ps(c3 + 8, acc31);
}

void Avx2Gemm(const float* a, const float* b, float* c, int m, int k, int n,
              bool accumulate) {
  const int vec_n = n - n % 8;
  const int quad_m = m - m % 4;
  const int quad_n = vec_n - vec_n % 16;
  // Bulk of the matrix: 4x16 register tiles.
  for (int i0 = 0; i0 < quad_m; i0 += 4) {
    for (int j0 = 0; j0 < quad_n; j0 += 16) {
      Avx2GemmRowQuad(a, b, c, k, n, static_cast<size_t>(k), i0, j0,
                      accumulate);
    }
  }
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    // Rows the 4x16 tiling missed run the single-row chunk kernel across
    // the full vector width; tiled rows only need the leftover columns.
    const int row_j0 = i < quad_m ? quad_n : 0;
    for (int j0 = row_j0; j0 < vec_n; j0 += 64) {
      Avx2GemmRowChunk(arow, b, crow, k, n, j0, std::min(64, vec_n - j0),
                       accumulate);
    }
    // Scalar tail columns keep the reference accumulation order.
    for (int j = vec_n; j < n; ++j) {
      float sum = accumulate ? crow[j] : 0.0f;
      for (int p = 0; p < k; ++p) {
        sum = std::fma(arow[p], b[static_cast<size_t>(p) * n + j], sum);
      }
      crow[j] = sum;
    }
  }
}

void Avx2Axpy(float s, const float* x, float* y, int n) {
  const __m256 sv = _mm256_set1_ps(s);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(sv, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fma(s, x[i], y[i]);
}

void Avx2GemmTransA(const float* a, const float* b, float* c, int k, int m,
                    int n) {
  for (int p = 0; p < k; ++p) {
    const float* arow = a + static_cast<size_t>(p) * m;
    const float* brow = b + static_cast<size_t>(p) * n;
    for (int i = 0; i < m; ++i) {
      Avx2Axpy(arow[i], brow, c + static_cast<size_t>(i) * n, n);
    }
  }
}

float Avx2Dot(const float* a, const float* b, int n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  acc0 = _mm256_add_ps(acc0, acc1);
  __m128 lo = _mm256_castps256_ps128(acc0);
  __m128 hi = _mm256_extractf128_ps(acc0, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_hadd_ps(lo, lo);
  lo = _mm_hadd_ps(lo, lo);
  float sum = _mm_cvtss_f32(lo);
  for (; i < n; ++i) sum = std::fma(a[i], b[i], sum);
  return sum;
}

void Avx2GemmTransB(const float* a, const float* b, float* c, int m, int k,
                    int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      crow[j] += Avx2Dot(arow, b + static_cast<size_t>(j) * k, k);
    }
  }
}

void Avx2LayerNorm(const float* x, const float* gain, const float* bias,
                   int rows, int d, float epsilon, float* out, float* normed,
                   float* inv_std) {
  for (int r = 0; r < rows; ++r) {
    const float* row = x + static_cast<size_t>(r) * d;
    // Double-precision mean/variance reduction stays scalar (d is small);
    // this keeps the statistics bit-identical to the reference backend.
    double mean = 0;
    for (int c = 0; c < d; ++c) mean += row[c];
    mean /= d;
    double var = 0;
    for (int c = 0; c < d; ++c) {
      double diff = row[c] - mean;
      var += diff * diff;
    }
    var /= d;
    float is = 1.0f / std::sqrt(static_cast<float>(var) + epsilon);
    if (inv_std != nullptr) inv_std[r] = is;
    float* orow = out + static_cast<size_t>(r) * d;
    float* nrow =
        normed != nullptr ? normed + static_cast<size_t>(r) * d : nullptr;
    const float mean_f = static_cast<float>(mean);
    const __m256 mean_v = _mm256_set1_ps(mean_f);
    const __m256 is_v = _mm256_set1_ps(is);
    int c = 0;
    for (; c + 8 <= d; c += 8) {
      __m256 norm = _mm256_mul_ps(
          _mm256_sub_ps(_mm256_loadu_ps(row + c), mean_v), is_v);
      if (nrow != nullptr) _mm256_storeu_ps(nrow + c, norm);
      _mm256_storeu_ps(
          orow + c, _mm256_fmadd_ps(norm, _mm256_loadu_ps(gain + c),
                                    _mm256_loadu_ps(bias + c)));
    }
    for (; c < d; ++c) {
      float norm = (row[c] - mean_f) * is;
      if (nrow != nullptr) nrow[c] = norm;
      orow[c] = std::fma(norm, gain[c], bias[c]);
    }
  }
}

void Avx2AttentionRow(const float* qrow, const float* k, const float* v,
                      const int* idx, int count, int d, float inv_sqrt_d,
                      float* weights, float* out) {
  float max_s = -1e30f;
  for (int j = 0; j < count; ++j) {
    weights[j] =
        Avx2Dot(qrow, k + static_cast<size_t>(idx[j]) * d, d) * inv_sqrt_d;
    max_s = std::max(max_s, weights[j]);
  }
  float sum = 0;
  for (int j = 0; j < count; ++j) {
    weights[j] = std::exp(weights[j] - max_s);
    sum += weights[j];
  }
  std::fill(out, out + d, 0.0f);
  for (int j = 0; j < count; ++j) {
    weights[j] /= sum;
    Avx2Axpy(weights[j], v + static_cast<size_t>(idx[j]) * d, out, d);
  }
}

void Avx2QuantizeI8(const float* x, int n, float inv_scale, int8_t* out) {
  const __m256 scale_v = _mm256_set1_ps(inv_scale);
  const __m256 lo_v = _mm256_set1_ps(-127.0f);
  const __m256 hi_v = _mm256_set1_ps(127.0f);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 scaled = _mm256_mul_ps(_mm256_loadu_ps(x + i), scale_v);
    scaled = _mm256_round_ps(
        scaled, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    scaled = _mm256_max_ps(lo_v, _mm256_min_ps(hi_v, scaled));
    __m256i q32 = _mm256_cvtps_epi32(scaled);
    __m128i q16 = _mm_packs_epi32(_mm256_castsi256_si128(q32),
                                  _mm256_extracti128_si256(q32, 1));
    __m128i q8 = _mm_packs_epi16(q16, q16);
    // 8 lanes -> 8 bytes.
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i), q8);
  }
  for (; i < n; ++i) {
    float rounded = std::nearbyint(x[i] * inv_scale);
    rounded = std::max(-127.0f, std::min(127.0f, rounded));
    out[i] = static_cast<int8_t>(rounded);
  }
}

int32_t Avx2DotI8(const int8_t* a, const int8_t* b, int k) {
  __m256i acc = _mm256_setzero_si256();
  int p = 0;
  for (; p + 16 <= k; p += 16) {
    __m256i a16 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + p)));
    __m256i b16 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + p)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a16, b16));
  }
  __m128i lo = _mm256_castsi256_si128(acc);
  __m128i hi = _mm256_extracti128_si256(acc, 1);
  lo = _mm_add_epi32(lo, hi);
  lo = _mm_hadd_epi32(lo, lo);
  lo = _mm_hadd_epi32(lo, lo);
  int32_t sum = _mm_cvtsi128_si32(lo);
  for (; p < k; ++p) {
    sum += static_cast<int32_t>(a[p]) * static_cast<int32_t>(b[p]);
  }
  return sum;
}

/// Four B columns at once: the widened A chunk (cvtepi8_epi16 is the
/// expensive part of the i8 dot) feeds four madd accumulators. Integer
/// accumulation is exact, so any blocking is bit-identical.
void Avx2QuadDotI8(const int8_t* arow, const int8_t* b0, const int8_t* b1,
                   const int8_t* b2, const int8_t* b3, int k, int32_t* out) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  __m256i acc2 = _mm256_setzero_si256();
  __m256i acc3 = _mm256_setzero_si256();
  int p = 0;
  for (; p + 16 <= k; p += 16) {
    const __m256i a16 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(arow + p)));
    auto widen = [](const int8_t* ptr) {
      return _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(ptr)));
    };
    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(a16, widen(b0 + p)));
    acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(a16, widen(b1 + p)));
    acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(a16, widen(b2 + p)));
    acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(a16, widen(b3 + p)));
  }
  auto reduce = [](__m256i acc) {
    __m128i lo = _mm256_castsi256_si128(acc);
    __m128i hi = _mm256_extracti128_si256(acc, 1);
    lo = _mm_add_epi32(lo, hi);
    lo = _mm_hadd_epi32(lo, lo);
    lo = _mm_hadd_epi32(lo, lo);
    return _mm_cvtsi128_si32(lo);
  };
  int32_t sums[4] = {reduce(acc0), reduce(acc1), reduce(acc2), reduce(acc3)};
  for (; p < k; ++p) {
    const int32_t av = arow[p];
    sums[0] += av * b0[p];
    sums[1] += av * b1[p];
    sums[2] += av * b2[p];
    sums[3] += av * b3[p];
  }
  out[0] = sums[0];
  out[1] = sums[1];
  out[2] = sums[2];
  out[3] = sums[3];
}

/// 2x4 tile: two A rows against four B columns. Each sign-extended chunk
/// (the expensive cvtepi8_epi16) feeds multiple madd chains — 6 widenings
/// for 8 madds, vs 2 widenings per madd in the naive dot.
void Avx2PairQuadDotI8(const int8_t* a0, const int8_t* a1, const int8_t* bj,
                       int k, int32_t* c0, int32_t* c1) {
  const int8_t* b1 = bj + k;
  const int8_t* b2 = b1 + k;
  const int8_t* b3 = b2 + k;
  __m256i acc[8] = {};
  auto widen = [](const int8_t* ptr) {
    return _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ptr)));
  };
  int p = 0;
  for (; p + 16 <= k; p += 16) {
    const __m256i a016 = widen(a0 + p);
    const __m256i a116 = widen(a1 + p);
    const __m256i b016 = widen(bj + p);
    const __m256i b116 = widen(b1 + p);
    const __m256i b216 = widen(b2 + p);
    const __m256i b316 = widen(b3 + p);
    acc[0] = _mm256_add_epi32(acc[0], _mm256_madd_epi16(a016, b016));
    acc[1] = _mm256_add_epi32(acc[1], _mm256_madd_epi16(a016, b116));
    acc[2] = _mm256_add_epi32(acc[2], _mm256_madd_epi16(a016, b216));
    acc[3] = _mm256_add_epi32(acc[3], _mm256_madd_epi16(a016, b316));
    acc[4] = _mm256_add_epi32(acc[4], _mm256_madd_epi16(a116, b016));
    acc[5] = _mm256_add_epi32(acc[5], _mm256_madd_epi16(a116, b116));
    acc[6] = _mm256_add_epi32(acc[6], _mm256_madd_epi16(a116, b216));
    acc[7] = _mm256_add_epi32(acc[7], _mm256_madd_epi16(a116, b316));
  }
  auto reduce = [](__m256i acc256) {
    __m128i lo = _mm256_castsi256_si128(acc256);
    __m128i hi = _mm256_extracti128_si256(acc256, 1);
    lo = _mm_add_epi32(lo, hi);
    lo = _mm_hadd_epi32(lo, lo);
    lo = _mm_hadd_epi32(lo, lo);
    return _mm_cvtsi128_si32(lo);
  };
  int32_t sums[8];
  for (int s = 0; s < 8; ++s) sums[s] = reduce(acc[s]);
  for (; p < k; ++p) {
    const int32_t a0v = a0[p], a1v = a1[p];
    const int32_t b0v = bj[p], b1v = b1[p], b2v = b2[p], b3v = b3[p];
    sums[0] += a0v * b0v;
    sums[1] += a0v * b1v;
    sums[2] += a0v * b2v;
    sums[3] += a0v * b3v;
    sums[4] += a1v * b0v;
    sums[5] += a1v * b1v;
    sums[6] += a1v * b2v;
    sums[7] += a1v * b3v;
  }
  c0[0] = sums[0];
  c0[1] = sums[1];
  c0[2] = sums[2];
  c0[3] = sums[3];
  c1[0] = sums[4];
  c1[1] = sums[5];
  c1[2] = sums[6];
  c1[3] = sums[7];
}

void Avx2GemmI8(const int8_t* a, const int8_t* bt, int32_t* c, int m, int k,
                int n) {
  const int quad_n = n - n % 4;
  const int pair_m = m - m % 2;
  for (int i = 0; i < pair_m; i += 2) {
    const int8_t* a0 = a + static_cast<size_t>(i) * k;
    const int8_t* a1 = a0 + k;
    int32_t* c0 = c + static_cast<size_t>(i) * n;
    int32_t* c1 = c0 + n;
    for (int j = 0; j < quad_n; j += 4) {
      Avx2PairQuadDotI8(a0, a1, bt + static_cast<size_t>(j) * k, k, c0 + j,
                        c1 + j);
    }
    for (int j = quad_n; j < n; ++j) {
      const int8_t* bj = bt + static_cast<size_t>(j) * k;
      c0[j] = Avx2DotI8(a0, bj, k);
      c1[j] = Avx2DotI8(a1, bj, k);
    }
  }
  for (int i = pair_m; i < m; ++i) {
    const int8_t* arow = a + static_cast<size_t>(i) * k;
    int32_t* crow = c + static_cast<size_t>(i) * n;
    for (int j = 0; j < quad_n; j += 4) {
      const int8_t* bj = bt + static_cast<size_t>(j) * k;
      Avx2QuadDotI8(arow, bj, bj + k, bj + 2 * static_cast<size_t>(k),
                    bj + 3 * static_cast<size_t>(k), k, crow + j);
    }
    for (int j = quad_n; j < n; ++j) {
      crow[j] = Avx2DotI8(arow, bt + static_cast<size_t>(j) * k, k);
    }
  }
}

/// Hides a value from the optimizer so the product it holds cannot be
/// contracted into an FMA with the add that consumes it: this file is
/// compiled with -mfma, and GCC contracts mul+add across intrinsics.
inline __m256 NoFuse(__m256 x) {
  __asm__("" : "+x"(x));
  return x;
}

/// Adam, eight lanes at a time, with the scalar loop's roundings exactly:
/// separate multiplies and adds, and _mm256_div_ps / _mm256_sqrt_ps, which
/// are correctly rounded. The tail runs the scalar kernel itself.
void Avx2AdamUpdate(float* w, float* g, float* m, float* v, int n, float b1,
                    float b2, float bias1, float bias2, float learning_rate,
                    float epsilon) {
  const __m256 vb1 = _mm256_set1_ps(b1);
  const __m256 vc1 = _mm256_set1_ps(1.0f - b1);
  const __m256 vb2 = _mm256_set1_ps(b2);
  const __m256 vc2 = _mm256_set1_ps(1.0f - b2);
  const __m256 vbias1 = _mm256_set1_ps(bias1);
  const __m256 vbias2 = _mm256_set1_ps(bias2);
  const __m256 vlr = _mm256_set1_ps(learning_rate);
  const __m256 veps = _mm256_set1_ps(epsilon);
  const __m256 zero = _mm256_setzero_ps();
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 gv = _mm256_loadu_ps(g + i);
    const __m256 mv =
        _mm256_add_ps(NoFuse(_mm256_mul_ps(vb1, _mm256_loadu_ps(m + i))),
                      NoFuse(_mm256_mul_ps(vc1, gv)));
    const __m256 vv = _mm256_add_ps(
        NoFuse(_mm256_mul_ps(vb2, _mm256_loadu_ps(v + i))),
        NoFuse(_mm256_mul_ps(_mm256_mul_ps(vc2, gv), gv)));
    _mm256_storeu_ps(m + i, mv);
    _mm256_storeu_ps(v + i, vv);
    const __m256 mhat = _mm256_div_ps(mv, vbias1);
    const __m256 vhat = _mm256_div_ps(vv, vbias2);
    const __m256 step =
        _mm256_div_ps(_mm256_mul_ps(vlr, mhat),
                      _mm256_add_ps(_mm256_sqrt_ps(vhat), veps));
    _mm256_storeu_ps(w + i, _mm256_sub_ps(_mm256_loadu_ps(w + i), step));
    _mm256_storeu_ps(g + i, zero);
  }
  if (i < n) {
    ScalarKernels().adam_update(w + i, g + i, m + i, v + i, n - i, b1, b2,
                                bias1, bias2, learning_rate, epsilon);
  }
}

}  // namespace

const Kernels* Avx2Kernels() {
  if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma")) {
    return nullptr;
  }
  static const Kernels kAvx2 = {
      "avx2",         Avx2Gemm,    Avx2GemmTransA, Avx2GemmTransB,
      Avx2Dot,        Avx2Axpy,    Avx2LayerNorm,  Avx2AttentionRow,
      Avx2QuantizeI8, Avx2GemmI8,  Avx2AdamUpdate,
  };
  return &kAvx2;
}

}  // namespace nn
}  // namespace fieldswap

#else  // !FIELDSWAP_KERNELS_AVX2

namespace fieldswap {
namespace nn {

const Kernels* Avx2Kernels() { return nullptr; }

}  // namespace nn
}  // namespace fieldswap

#endif  // FIELDSWAP_KERNELS_AVX2
