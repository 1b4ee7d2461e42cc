// Scalar reference backend. Every other backend is validated against this
// one (tests/kernels_test.cc pins the ulp bounds), so the loops here favor
// an unambiguous accumulation order over cleverness:
//   - gemm walks i, then p, then j: each C element receives its k partial
//     products in ascending-p order, one rounding step per product. A SIMD
//     backend that vectorizes over j preserves this order bit-exactly.
//   - reductions (dot, gemm_trans_b, attention scores) accumulate left to
//     right in a single chain.
// No data-dependent shortcuts: skipping exact-zero operands would make the
// executed FLOP sequence depend on values, which breaks scalar-vs-SIMD
// comparability and turns ulp bounds into moving targets (ISSUE 7).

#include "nn/kernels/backend.h"

#include <algorithm>
#include <cmath>

namespace fieldswap {
namespace nn {
namespace {

void ScalarGemm(const float* a, const float* b, float* c, int m, int k, int n,
                bool accumulate) {
  if (!accumulate) std::fill(c, c + static_cast<size_t>(m) * n, 0.0f);
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b + static_cast<size_t>(p) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void ScalarGemmTransA(const float* a, const float* b, float* c, int k, int m,
                      int n) {
  for (int p = 0; p < k; ++p) {
    const float* arow = a + static_cast<size_t>(p) * m;
    const float* brow = b + static_cast<size_t>(p) * n;
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      float* crow = c + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

float ScalarDot(const float* a, const float* b, int n) {
  float sum = 0.0f;
  for (int i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

void ScalarGemmTransB(const float* a, const float* b, float* c, int m, int k,
                      int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      crow[j] += ScalarDot(arow, b + static_cast<size_t>(j) * k, k);
    }
  }
}

void ScalarAxpy(float s, const float* x, float* y, int n) {
  for (int i = 0; i < n; ++i) y[i] += s * x[i];
}

void ScalarLayerNorm(const float* x, const float* gain, const float* bias,
                     int rows, int d, float epsilon, float* out, float* normed,
                     float* inv_std) {
  for (int r = 0; r < rows; ++r) {
    const float* row = x + static_cast<size_t>(r) * d;
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
    for (int c = 0; c < d; ++c) {
      float norm = (row[c] - mean_f) * is;
      if (nrow != nullptr) nrow[c] = norm;
      orow[c] = norm * gain[c] + bias[c];
    }
  }
}

void ScalarAttentionRow(const float* qrow, const float* k, const float* v,
                        const int* idx, int count, int d, float inv_sqrt_d,
                        float* weights, float* out) {
  float max_s = -1e30f;
  for (int j = 0; j < count; ++j) {
    weights[j] =
        ScalarDot(qrow, k + static_cast<size_t>(idx[j]) * d, d) * inv_sqrt_d;
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
    ScalarAxpy(weights[j], v + static_cast<size_t>(idx[j]) * d, out, d);
  }
}

void ScalarQuantizeI8(const float* x, int n, float inv_scale, int8_t* out) {
  for (int i = 0; i < n; ++i) {
    // Round-to-nearest-even, matching the SIMD cvtps path bit for bit.
    float scaled = x[i] * inv_scale;
    float rounded = std::nearbyint(scaled);
    rounded = std::max(-127.0f, std::min(127.0f, rounded));
    out[i] = static_cast<int8_t>(rounded);
  }
}

void ScalarGemmI8(const int8_t* a, const int8_t* bt, int32_t* c, int m, int k,
                  int n) {
  for (int i = 0; i < m; ++i) {
    const int8_t* arow = a + static_cast<size_t>(i) * k;
    int32_t* crow = c + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const int8_t* brow = bt + static_cast<size_t>(j) * k;
      int32_t sum = 0;
      for (int p = 0; p < k; ++p) {
        sum += static_cast<int32_t>(arow[p]) * static_cast<int32_t>(brow[p]);
      }
      crow[j] = sum;
    }
  }
}

void ScalarAdamUpdate(float* w, float* g, float* m, float* v, int n, float b1,
                      float b2, float bias1, float bias2, float learning_rate,
                      float epsilon) {
  for (int i = 0; i < n; ++i) {
    m[i] = b1 * m[i] + (1.0f - b1) * g[i];
    v[i] = b2 * v[i] + (1.0f - b2) * g[i] * g[i];
    float mhat = m[i] / bias1;
    float vhat = v[i] / bias2;
    w[i] -= learning_rate * mhat / (std::sqrt(vhat) + epsilon);
    g[i] = 0.0f;
  }
}

}  // namespace

const Kernels& ScalarKernels() {
  static const Kernels kScalar = {
      "scalar",          ScalarGemm,    ScalarGemmTransA, ScalarGemmTransB,
      ScalarDot,         ScalarAxpy,    ScalarLayerNorm,  ScalarAttentionRow,
      ScalarQuantizeI8,  ScalarGemmI8,  ScalarAdamUpdate,
  };
  return kScalar;
}

}  // namespace nn
}  // namespace fieldswap
