// NEON backend for AArch64. Same vectorization strategy as the AVX2
// backend, scaled to 128-bit lanes:
//   - gemm / gemm_trans_a / axpy / layer_norm vectorize the elementwise
//     dimension with fused multiply-add (vfmaq_f32) and keep the scalar
//     accumulation order per output element.
//   - dot / gemm_trans_b / attention scores use 2-way vector partial sums
//     with a tree reduction; ulp bounds pinned by tests/kernels_test.cc.
//   - integer kernels are exact.
//   - adam_update is exact too: it keeps every scalar rounding and fuses
//     nothing (see NoFuse).

#include "nn/kernels/backend.h"

#if defined(FIELDSWAP_KERNELS_NEON) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>

namespace fieldswap {
namespace nn {
namespace {

void NeonGemm(const float* a, const float* b, float* c, int m, int k, int n,
              bool accumulate) {
  if (!accumulate) std::fill(c, c + static_cast<size_t>(m) * n, 0.0f);
  const int vec_n = n - n % 4;
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      const float32x4_t av = vdupq_n_f32(arow[p]);
      const float* brow = b + static_cast<size_t>(p) * n;
      int j = 0;
      for (; j < vec_n; j += 4) {
        vst1q_f32(crow + j,
                  vfmaq_f32(vld1q_f32(crow + j), av, vld1q_f32(brow + j)));
      }
      for (; j < n; ++j) crow[j] = std::fma(arow[p], brow[j], crow[j]);
    }
  }
}

void NeonAxpy(float s, const float* x, float* y, int n) {
  const float32x4_t sv = vdupq_n_f32(s);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vfmaq_f32(vld1q_f32(y + i), sv, vld1q_f32(x + i)));
  }
  for (; i < n; ++i) y[i] = std::fma(s, x[i], y[i]);
}

void NeonGemmTransA(const float* a, const float* b, float* c, int k, int m,
                    int n) {
  for (int p = 0; p < k; ++p) {
    const float* arow = a + static_cast<size_t>(p) * m;
    const float* brow = b + static_cast<size_t>(p) * n;
    for (int i = 0; i < m; ++i) {
      NeonAxpy(arow[i], brow, c + static_cast<size_t>(i) * n, n);
    }
  }
}

float NeonDot(const float* a, const float* b, int n) {
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
  }
  float sum = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; i < n; ++i) sum = std::fma(a[i], b[i], sum);
  return sum;
}

void NeonGemmTransB(const float* a, const float* b, float* c, int m, int k,
                    int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      crow[j] += NeonDot(arow, b + static_cast<size_t>(j) * k, k);
    }
  }
}

void NeonLayerNorm(const float* x, const float* gain, const float* bias,
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
    const float32x4_t mean_v = vdupq_n_f32(mean_f);
    const float32x4_t is_v = vdupq_n_f32(is);
    int c = 0;
    for (; c + 4 <= d; c += 4) {
      float32x4_t norm =
          vmulq_f32(vsubq_f32(vld1q_f32(row + c), mean_v), is_v);
      if (nrow != nullptr) vst1q_f32(nrow + c, norm);
      vst1q_f32(orow + c,
                vfmaq_f32(vld1q_f32(bias + c), norm, vld1q_f32(gain + c)));
    }
    for (; c < d; ++c) {
      float norm = (row[c] - mean_f) * is;
      if (nrow != nullptr) nrow[c] = norm;
      orow[c] = std::fma(norm, gain[c], bias[c]);
    }
  }
}

void NeonAttentionRow(const float* qrow, const float* k, const float* v,
                      const int* idx, int count, int d, float inv_sqrt_d,
                      float* weights, float* out) {
  float max_s = -1e30f;
  for (int j = 0; j < count; ++j) {
    weights[j] =
        NeonDot(qrow, k + static_cast<size_t>(idx[j]) * d, d) * inv_sqrt_d;
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
    NeonAxpy(weights[j], v + static_cast<size_t>(idx[j]) * d, out, d);
  }
}

void NeonQuantizeI8(const float* x, int n, float inv_scale, int8_t* out) {
  for (int i = 0; i < n; ++i) {
    float rounded = std::nearbyint(x[i] * inv_scale);
    rounded = std::max(-127.0f, std::min(127.0f, rounded));
    out[i] = static_cast<int8_t>(rounded);
  }
}

void NeonGemmI8(const int8_t* a, const int8_t* bt, int32_t* c, int m, int k,
                int n) {
  for (int i = 0; i < m; ++i) {
    const int8_t* arow = a + static_cast<size_t>(i) * k;
    int32_t* crow = c + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const int8_t* brow = bt + static_cast<size_t>(j) * k;
      int32x4_t acc = vdupq_n_s32(0);
      int p = 0;
      for (; p + 8 <= k; p += 8) {
        int16x8_t prod =
            vmull_s8(vld1_s8(arow + p), vld1_s8(brow + p));
        acc = vpadalq_s16(acc, prod);
      }
      int32_t sum = vaddvq_s32(acc);
      for (; p < k; ++p) {
        sum += static_cast<int32_t>(arow[p]) * static_cast<int32_t>(brow[p]);
      }
      crow[j] = sum;
    }
  }
}

/// Hides a value from the optimizer so the product it holds cannot be
/// contracted into an FMA with the add that consumes it.
inline float32x4_t NoFuse(float32x4_t x) {
  __asm__("" : "+w"(x));
  return x;
}

/// Adam, four lanes at a time, with the scalar loop's roundings exactly:
/// separate multiplies and adds, and vdivq_f32 / vsqrtq_f32, which are
/// correctly rounded. The tail runs the scalar kernel itself.
void NeonAdamUpdate(float* w, float* g, float* m, float* v, int n, float b1,
                    float b2, float bias1, float bias2, float learning_rate,
                    float epsilon) {
  const float32x4_t vb1 = vdupq_n_f32(b1);
  const float32x4_t vc1 = vdupq_n_f32(1.0f - b1);
  const float32x4_t vb2 = vdupq_n_f32(b2);
  const float32x4_t vc2 = vdupq_n_f32(1.0f - b2);
  const float32x4_t vbias1 = vdupq_n_f32(bias1);
  const float32x4_t vbias2 = vdupq_n_f32(bias2);
  const float32x4_t vlr = vdupq_n_f32(learning_rate);
  const float32x4_t veps = vdupq_n_f32(epsilon);
  const float32x4_t zero = vdupq_n_f32(0.0f);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t gv = vld1q_f32(g + i);
    const float32x4_t mv = vaddq_f32(NoFuse(vmulq_f32(vb1, vld1q_f32(m + i))),
                                     NoFuse(vmulq_f32(vc1, gv)));
    const float32x4_t vv =
        vaddq_f32(NoFuse(vmulq_f32(vb2, vld1q_f32(v + i))),
                  NoFuse(vmulq_f32(vmulq_f32(vc2, gv), gv)));
    vst1q_f32(m + i, mv);
    vst1q_f32(v + i, vv);
    const float32x4_t mhat = vdivq_f32(mv, vbias1);
    const float32x4_t vhat = vdivq_f32(vv, vbias2);
    const float32x4_t step = vdivq_f32(vmulq_f32(vlr, mhat),
                                       vaddq_f32(vsqrtq_f32(vhat), veps));
    vst1q_f32(w + i, vsubq_f32(vld1q_f32(w + i), step));
    vst1q_f32(g + i, zero);
  }
  if (i < n) {
    ScalarKernels().adam_update(w + i, g + i, m + i, v + i, n - i, b1, b2,
                                bias1, bias2, learning_rate, epsilon);
  }
}

}  // namespace

const Kernels* NeonKernels() {
  static const Kernels kNeon = {
      "neon",         NeonGemm,    NeonGemmTransA, NeonGemmTransB,
      NeonDot,        NeonAxpy,    NeonLayerNorm,  NeonAttentionRow,
      NeonQuantizeI8, NeonGemmI8,  NeonAdamUpdate,
  };
  return &kNeon;
}

}  // namespace nn
}  // namespace fieldswap

#else  // !FIELDSWAP_KERNELS_NEON || !__ARM_NEON

namespace fieldswap {
namespace nn {

const Kernels* NeonKernels() { return nullptr; }

}  // namespace nn
}  // namespace fieldswap

#endif  // FIELDSWAP_KERNELS_NEON && __ARM_NEON
