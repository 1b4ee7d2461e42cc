// Kernel-backend parity suite (ISSUE 7).
//
// The determinism contract under test:
//   - within a backend, results are bit-identical across thread counts and
//     across the graph vs graph-free forwards;
//   - across backends, float kernels may differ by a pinned number of ulps
//     (FMA contraction and vectorized tree reductions round differently);
//   - integer kernels (quantize, int8 GEMM) are exact on every backend;
//   - the int8-quantized snapshot stays within 0.005 micro-F1 of the float
//     model on a fixed-seed trained corpus.
//
// Every test sweeps nn::AvailableKernelBackends(), so on an AVX2 host the
// suite compares avx2 against the scalar reference, and on a plain host it
// degenerates to scalar-vs-scalar (still exercising shapes and contracts).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "eval/metrics.h"
#include "model/sequence_model.h"
#include "model/trainer.h"
#include "nn/kernels.h"
#include "nn/kernels/backend.h"
#include "nn/matrix.h"
#include "nn/ops.h"
#include "nn/quant.h"
#include "par/parallel.h"
#include "synth/domains.h"
#include "synth/generator.h"
#include "util/rng.h"

namespace fieldswap {
namespace {

/// Restores the active backend (and thread count) when a test ends, so the
/// sweep order of this suite can never leak into other tests.
class BackendGuard {
 public:
  BackendGuard() : backend_(nn::KernelBackendName()), threads_(par::Threads()) {}
  ~BackendGuard() {
    nn::SetKernelBackend(backend_);
    par::SetThreads(threads_);
  }

 private:
  std::string backend_;
  int threads_;
};

/// One ulp at the magnitude of `scale` (the spacing of floats there).
float UlpAt(float scale) {
  return std::nextafter(scale, std::numeric_limits<float>::infinity()) -
         scale;
}

/// Max elementwise |a - ref| measured in ulps AT THE SCALE OF THE LARGEST
/// REFERENCE VALUE. Plain per-element ulp distance is the wrong metric
/// here: FMA contraction changes each partial product by <= 1/2 ulp of the
/// PRODUCT, so when a sum cancels toward zero the absolute error stays
/// bounded by the operand scale while the per-element relative error — and
/// raw ulp distance — explodes. The contract backends must honor is
/// absolute error at operand scale, which this measures.
double MaxUlpAtScale(const Matrix& a, const Matrix& ref) {
  EXPECT_EQ(a.rows(), ref.rows());
  EXPECT_EQ(a.cols(), ref.cols());
  float scale = 0.0f;
  for (float v : ref.values()) {
    EXPECT_TRUE(std::isfinite(v));
    scale = std::max(scale, std::fabs(v));
  }
  const float ulp = UlpAt(std::max(scale, 1e-6f));
  double max_ulps = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!std::isfinite(a.data()[i])) {
      return std::numeric_limits<double>::infinity();
    }
    double diff = std::fabs(static_cast<double>(a.data()[i]) -
                            static_cast<double>(ref.data()[i]));
    max_ulps = std::max(max_ulps, diff / ulp);
  }
  return max_ulps;
}

double UlpAtScaleScalar(float a, float ref) {
  return std::fabs(static_cast<double>(a) - static_cast<double>(ref)) /
         UlpAt(std::max(std::fabs(ref), 1e-6f));
}

Matrix RandomMatrix(int rows, int cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      m.At(r, c) = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
  }
  return m;
}

std::vector<std::string> NonScalarBackends() {
  std::vector<std::string> out;
  for (const std::string& b : nn::AvailableKernelBackends()) {
    if (b != "scalar") out.push_back(b);
  }
  return out;
}

// Pinned cross-backend tolerances, in ulps at the scale of the largest
// scalar-reference value. The AVX2 backend measures at most 2 ulps on
// every case below, so these carry >= 4x headroom; a future backend that
// needs more is reordering more aggressively than the contract allows.
constexpr double kGemmUlpBound = 8;
constexpr double kLayerNormUlpBound = 8;
constexpr double kAttentionUlpBound = 16;

struct GemmShape {
  int m, k, n;
};

// Degenerate depths (k=0, k=1), odd widths that exercise every tail path,
// and tile-sized operands that exercise the blocked SIMD paths.
const GemmShape kGemmShapes[] = {
    {1, 1, 1}, {3, 0, 5},  {2, 1, 7},   {5, 13, 9},
    {7, 8, 8}, {8, 32, 16}, {12, 96, 33}, {9, 64, 96},
};

TEST(KernelBackends, ScalarAlwaysAvailableAndSelectable) {
  BackendGuard guard;
  std::vector<std::string> backends = nn::AvailableKernelBackends();
  ASSERT_FALSE(backends.empty());
  EXPECT_NE(std::find(backends.begin(), backends.end(), "scalar"),
            backends.end());
  for (const std::string& b : backends) {
    EXPECT_TRUE(nn::SetKernelBackend(b)) << b;
    EXPECT_EQ(nn::KernelBackendName(), b);
  }
  // An unknown backend is rejected and the active backend is unchanged.
  ASSERT_TRUE(nn::SetKernelBackend("scalar"));
  EXPECT_FALSE(nn::SetKernelBackend("not-a-backend"));
  EXPECT_EQ(nn::KernelBackendName(), "scalar");
  // "auto" and "" resolve to the best available backend (list head).
  EXPECT_TRUE(nn::SetKernelBackend("auto"));
  EXPECT_EQ(nn::KernelBackendName(), backends.front());
}

TEST(KernelParity, GemmAcrossBackendsWithinPinnedUlps) {
  BackendGuard guard;
  for (const GemmShape& shape : kGemmShapes) {
    SCOPED_TRACE(testing::Message() << "m=" << shape.m << " k=" << shape.k
                                    << " n=" << shape.n);
    Matrix a = RandomMatrix(shape.m, shape.k, 11);
    Matrix b = RandomMatrix(shape.k, shape.n, 22);
    Matrix seed_out = RandomMatrix(shape.m, shape.n, 33);

    ASSERT_TRUE(nn::SetKernelBackend("scalar"));
    Matrix ref(shape.m, shape.n);
    MatMulInto(a, b, ref);
    Matrix ref_accum = seed_out;
    MatMulAccumInto(a, b, ref_accum);

    for (const std::string& backend : NonScalarBackends()) {
      SCOPED_TRACE(backend);
      ASSERT_TRUE(nn::SetKernelBackend(backend));
      Matrix out(shape.m, shape.n);
      MatMulInto(a, b, out);
      EXPECT_LE(MaxUlpAtScale(out, ref), kGemmUlpBound);
      Matrix accum = seed_out;
      MatMulAccumInto(a, b, accum);
      EXPECT_LE(MaxUlpAtScale(accum, ref_accum), kGemmUlpBound);
    }

    if (shape.k == 0) {
      // Depth-0 products are exact on every backend: overwrite yields
      // zeros, accumulate leaves the output untouched.
      for (const std::string& backend : nn::AvailableKernelBackends()) {
        ASSERT_TRUE(nn::SetKernelBackend(backend));
        Matrix out = RandomMatrix(shape.m, shape.n, 44);
        MatMulInto(a, b, out);
        EXPECT_EQ(out, Matrix::Zeros(shape.m, shape.n)) << backend;
        Matrix accum = seed_out;
        MatMulAccumInto(a, b, accum);
        EXPECT_EQ(accum, seed_out) << backend;
      }
    }
  }
}

TEST(KernelParity, TransposedGemmAcrossBackendsWithinPinnedUlps) {
  BackendGuard guard;
  // C += A^T B with A [k,m], and C += A B^T with B [n,k].
  const int m = 7, k = 19, n = 34;
  Matrix at = RandomMatrix(k, m, 55);
  Matrix b = RandomMatrix(k, n, 66);
  Matrix a = RandomMatrix(m, k, 77);
  Matrix bt = RandomMatrix(n, k, 88);
  Matrix seed_out = RandomMatrix(m, n, 99);

  ASSERT_TRUE(nn::SetKernelBackend("scalar"));
  Matrix ref_ta = seed_out;
  MatMulTransAAccumInto(at, b, ref_ta);
  Matrix ref_tb = seed_out;
  MatMulTransBAccumInto(a, bt, ref_tb);
  float ref_dot = DotSpan(a.Row(0), a.Row(1), k);

  for (const std::string& backend : NonScalarBackends()) {
    SCOPED_TRACE(backend);
    ASSERT_TRUE(nn::SetKernelBackend(backend));
    Matrix out_ta = seed_out;
    MatMulTransAAccumInto(at, b, out_ta);
    EXPECT_LE(MaxUlpAtScale(out_ta, ref_ta), kGemmUlpBound);
    Matrix out_tb = seed_out;
    MatMulTransBAccumInto(a, bt, out_tb);
    EXPECT_LE(MaxUlpAtScale(out_tb, ref_tb), kGemmUlpBound);
    EXPECT_LE(UlpAtScaleScalar(DotSpan(a.Row(0), a.Row(1), k), ref_dot),
              kGemmUlpBound);
  }
}

TEST(KernelParity, LayerNormAcrossBackendsWithinPinnedUlps) {
  BackendGuard guard;
  for (int d : {8, 13, 96}) {
    SCOPED_TRACE(testing::Message() << "d=" << d);
    const int rows = 9;
    Matrix x = RandomMatrix(rows, d, 111);
    Matrix gain = RandomMatrix(1, d, 222);
    Matrix bias = RandomMatrix(1, d, 333);

    ASSERT_TRUE(nn::SetKernelBackend("scalar"));
    Matrix ref(rows, d);
    LayerNormInto(x, gain, bias, ref);
    for (const std::string& backend : NonScalarBackends()) {
      SCOPED_TRACE(backend);
      ASSERT_TRUE(nn::SetKernelBackend(backend));
      Matrix out(rows, d);
      LayerNormInto(x, gain, bias, out);
      EXPECT_LE(MaxUlpAtScale(out, ref), kLayerNormUlpBound);
    }
  }
}

TEST(KernelParity, NeighborAttentionAcrossBackendsWithinPinnedUlps) {
  BackendGuard guard;
  const int t = 33, d = 24;
  Matrix q = RandomMatrix(t, d, 444);
  Matrix k = RandomMatrix(t, d, 555);
  Matrix v = RandomMatrix(t, d, 666);
  std::vector<std::vector<int>> neighbors(t);
  for (int i = 0; i < t; ++i) {
    for (int j = std::max(0, i - 3); j <= std::min(t - 1, i + 3); ++j) {
      neighbors[static_cast<size_t>(i)].push_back(j);
    }
  }

  ASSERT_TRUE(nn::SetKernelBackend("scalar"));
  Matrix ref(t, d);
  NeighborAttentionInto(q, k, v, neighbors, ref);
  for (const std::string& backend : NonScalarBackends()) {
    SCOPED_TRACE(backend);
    ASSERT_TRUE(nn::SetKernelBackend(backend));
    Matrix out(t, d);
    NeighborAttentionInto(q, k, v, neighbors, out);
    EXPECT_LE(MaxUlpAtScale(out, ref), kAttentionUlpBound);
  }
}

TEST(KernelDeterminism, GraphAndGraphFreeForwardsBitIdenticalPerBackend) {
  BackendGuard guard;
  DomainSpec spec = EarningsSpec();
  std::vector<Document> docs = GenerateCorpus(spec, 3, 91, "kpar");
  SequenceLabelingModel model(SequenceModelConfig{}, spec.Schema());
  for (const std::string& backend : nn::AvailableKernelBackends()) {
    SCOPED_TRACE(backend);
    ASSERT_TRUE(nn::SetKernelBackend(backend));
    for (const Document& doc : docs) {
      EncodedDoc enc = model.EncodeDoc(doc);
      // Same kernels in the same order: the tape-free forward must match
      // the autodiff forward to the bit, not merely to a tolerance.
      EXPECT_EQ(model.InferLogits(enc), model.Logits(enc)->value);
      EXPECT_EQ(model.PredictEncoded(enc), model.PredictEncodedGraph(enc));
    }
  }
}

TEST(KernelDeterminism, ThreadCountBitIdentityPerBackend) {
  BackendGuard guard;
  DomainSpec spec = EarningsSpec();
  std::vector<Document> docs = GenerateCorpus(spec, 6, 92, "kthr");
  SequenceLabelingModel model(SequenceModelConfig{}, spec.Schema());
  Int8Plan plan = model.MakeInt8Plan();
  auto predict_all = [&](bool int8) {
    return par::ParallelMap(docs.size(), [&](size_t i) {
      EncodedDoc enc = model.EncodeDoc(docs[i]);
      return int8 ? model.PredictEncodedInt8(plan, enc)
                  : model.PredictEncoded(enc);
    });
  };
  for (const std::string& backend : nn::AvailableKernelBackends()) {
    SCOPED_TRACE(backend);
    ASSERT_TRUE(nn::SetKernelBackend(backend));
    par::SetThreads(1);
    auto float_serial = predict_all(false);
    auto int8_serial = predict_all(true);
    par::SetThreads(8);
    EXPECT_EQ(predict_all(false), float_serial);
    EXPECT_EQ(predict_all(true), int8_serial);
  }
}

TEST(Int8Kernels, QuantizeTransposedScaleAndShape) {
  BackendGuard guard;
  Matrix w = RandomMatrix(13, 7, 123);
  w.At(4, 2) = 2.54f;  // deterministic maxabs
  for (const std::string& backend : nn::AvailableKernelBackends()) {
    SCOPED_TRACE(backend);
    ASSERT_TRUE(nn::SetKernelBackend(backend));
    QuantizedTensor q = QuantizeTransposed(w);
    ASSERT_EQ(q.rows, w.cols());
    ASSERT_EQ(q.cols, w.rows());
    EXPECT_FLOAT_EQ(q.scale, 2.54f / 127.0f);
    // Transposed layout, round-to-nearest, every code in [-127, 127].
    for (int r = 0; r < q.rows; ++r) {
      for (int c = 0; c < q.cols; ++c) {
        int8_t code = q.data[static_cast<size_t>(r) * q.cols + c];
        EXPECT_GE(code, -127);
        float dequant = static_cast<float>(code) * q.scale;
        EXPECT_NEAR(dequant, w.At(c, r), q.scale * 0.5f + 1e-6f);
      }
    }
  }
  // All-zero weights quantize to scale 1 (not 0, which would divide by 0).
  QuantizedTensor zero = QuantizeTransposed(Matrix::Zeros(3, 4));
  EXPECT_FLOAT_EQ(zero.scale, 1.0f);
}

TEST(Int8Kernels, GemmI8ExactOnEveryBackend) {
  BackendGuard guard;
  const int m = 9, k = 35, n = 13;  // odd sizes exercise every tail path
  Rng rng(321);
  std::vector<int8_t> a(static_cast<size_t>(m) * k);
  std::vector<int8_t> bt(static_cast<size_t>(n) * k);
  for (int8_t& v : a) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  for (int8_t& v : bt) v = static_cast<int8_t>(rng.UniformInt(-127, 127));

  std::vector<int32_t> ref(static_cast<size_t>(m) * n, 0);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      int32_t sum = 0;
      for (int p = 0; p < k; ++p) {
        sum += static_cast<int32_t>(a[static_cast<size_t>(i) * k + p]) *
               static_cast<int32_t>(bt[static_cast<size_t>(j) * k + p]);
      }
      ref[static_cast<size_t>(i) * n + j] = sum;
    }
  }

  for (const std::string& backend : nn::AvailableKernelBackends()) {
    SCOPED_TRACE(backend);
    ASSERT_TRUE(nn::SetKernelBackend(backend));
    std::vector<int32_t> out(static_cast<size_t>(m) * n, -1);
    nn::ActiveKernels().gemm_i8(a.data(), bt.data(), out.data(), m, k, n);
    EXPECT_EQ(out, ref);
  }
}

// adam_update is held to more than the ulp bounds above: every backend must
// be bit-identical to the scalar loop (same roundings, no FMA), so the
// trained weights do not depend on the backend through the optimizer.
TEST(AdamKernel, BitIdenticalOnEveryBackend) {
  BackendGuard guard;
  for (int n : {1, 7, 8, 9, 32, 131}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Rng rng(static_cast<uint64_t>(500 + n));
    std::vector<float> w0(static_cast<size_t>(n)), g0(w0.size()),
        m0(w0.size()), v0(w0.size());
    for (size_t i = 0; i < w0.size(); ++i) {
      w0[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
      // Every third gradient is exactly zero, as in an untouched row.
      g0[i] = i % 3 == 0 ? 0.0f : static_cast<float>(rng.Uniform(-2.0, 2.0));
      m0[i] = i % 5 == 0 ? 0.0f : static_cast<float>(rng.Uniform(-0.1, 0.1));
      v0[i] = i % 5 == 0 ? 0.0f : static_cast<float>(rng.Uniform(0.0, 0.01));
    }
    std::vector<std::vector<float>> reference;
    for (const std::string& backend : nn::AvailableKernelBackends()) {
      SCOPED_TRACE(backend);
      ASSERT_TRUE(nn::SetKernelBackend(backend));
      std::vector<float> w = w0, g = g0, m = m0, v = v0;
      for (int step = 1; step <= 3; ++step) {
        const float bias1 = 1.0f - std::pow(0.9f, static_cast<float>(step));
        const float bias2 = 1.0f - std::pow(0.999f, static_cast<float>(step));
        if (step > 1) g = g0;
        nn::ActiveKernels().adam_update(w.data(), g.data(), m.data(),
                                        v.data(), n, 0.9f, 0.999f, bias1,
                                        bias2, 1e-3f, 1e-8f);
      }
      for (float x : g) EXPECT_EQ(x, 0.0f);
      std::vector<std::vector<float>> state = {w, m, v};
      if (reference.empty()) {
        reference = state;
        continue;
      }
      for (size_t k = 0; k < state.size(); ++k) {
        EXPECT_EQ(std::memcmp(state[k].data(), reference[k].data(),
                              state[k].size() * sizeof(float)),
                  0)
            << "state " << k << " differs from "
            << nn::AvailableKernelBackends().front();
      }
    }
    // An element with zero gradient and zero moments is left exactly alone.
    ASSERT_EQ(g0[0], 0.0f);
    ASSERT_EQ(m0[0], 0.0f);
    EXPECT_EQ(std::memcmp(&reference[0][0], &w0[0], sizeof(float)), 0);
  }
}

TEST(Int8Snapshot, TrainedF1WithinHalfAPercentOfFloat) {
  BackendGuard guard;
  // Fixed-seed small train run (the golden suite's protocol, scaled to a
  // unit test), then a wider test corpus so one flipped span cannot move
  // micro-F1 by more than the tolerance being asserted.
  DomainSpec spec = EarningsSpec();
  std::vector<Document> train = GenerateCorpus(spec, 10, 93, "ktrain");
  std::vector<Document> test = GenerateCorpus(spec, 48, 94, "ktest");
  SequenceLabelingModel model(SequenceModelConfig{}, spec.Schema());
  TrainOptions options;
  options.total_steps = 300;
  options.validate_every = 100;
  TrainSequenceModel(model, train, {}, options);

  EvalResult float_eval = EvaluateModel(model, test);

  Int8Plan plan = model.MakeInt8Plan();
  std::map<std::string, FieldScore> scores;
  for (const Document& doc : test) {
    EncodedDoc enc = model.EncodeDoc(doc);
    AccumulateSpanScores(doc.annotations(),
                         model.PredictEncodedInt8(plan, enc), scores);
  }
  EvalResult int8_eval = FinalizeScores(std::move(scores));

  // The trained model must actually extract something, or the delta below
  // would be trivially zero.
  EXPECT_GT(float_eval.micro_f1, 0.1);
  EXPECT_NEAR(int8_eval.micro_f1, float_eval.micro_f1, 0.005);
}

}  // namespace
}  // namespace fieldswap
