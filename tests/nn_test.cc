#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>

#include "nn/autodiff.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "nn/sparsemax.h"
#include "util/rng.h"

namespace fieldswap {
namespace {

// ---- Matrix ---------------------------------------------------------------

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6u);
  m.At(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(m.At(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(m.At(0, 0), 0.0f);
}

TEST(MatrixTest, FromValuesRowMajor) {
  Matrix m = Matrix::FromValues(2, 2, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(m.At(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(m.At(1, 0), 3.0f);
}

TEST(MatrixTest, InPlaceArithmetic) {
  Matrix a = Matrix::FromValues(1, 3, {1, 2, 3});
  Matrix b = Matrix::FromValues(1, 3, {10, 20, 30});
  a.AddInPlace(b);
  EXPECT_FLOAT_EQ(a.At(0, 2), 33.0f);
  a.AxpyInPlace(-0.5f, b);
  EXPECT_FLOAT_EQ(a.At(0, 0), 6.0f);
  a.ScaleInPlace(2.0f);
  EXPECT_FLOAT_EQ(a.At(0, 1), 24.0f);
}

TEST(MatrixTest, Norm) {
  Matrix m = Matrix::FromValues(1, 2, {3, 4});
  EXPECT_FLOAT_EQ(m.Norm(), 5.0f);
}

TEST(MatrixTest, MatMulKnownResult) {
  Matrix a = Matrix::FromValues(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b = Matrix::FromValues(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix out(2, 2);
  MatMulInto(a, b, out);
  // [1 2 3; 4 5 6] * [7 8; 9 10; 11 12] = [58 64; 139 154]
  EXPECT_FLOAT_EQ(out.At(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(out.At(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(out.At(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(out.At(1, 1), 154.0f);
}

TEST(MatrixTest, MatMulIntoOverwritesAndAccumAdds) {
  Matrix a = Matrix::FromValues(1, 2, {1, 2});
  Matrix b = Matrix::FromValues(2, 1, {3, 4});
  Matrix out = Matrix::Full(1, 1, 100.0f);
  MatMulInto(a, b, out);
  EXPECT_FLOAT_EQ(out.At(0, 0), 11.0f);  // stale contents discarded
  MatMulAccumInto(a, b, out);
  EXPECT_FLOAT_EQ(out.At(0, 0), 22.0f);  // accumulates on request
}

TEST(MatrixTest, MatMulTransVariantsAgree) {
  Rng rng(5);
  Matrix a = Matrix::Gaussian(4, 3, 1.0f, rng);
  Matrix b = Matrix::Gaussian(4, 5, 1.0f, rng);
  // a^T * b via MatMulTransAAccumInto vs explicit transpose + MatMulInto.
  Matrix out1(3, 5);
  MatMulTransAAccumInto(a, b, out1);
  Matrix at(3, 4);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 3; ++c) at.At(c, r) = a.At(r, c);
  }
  Matrix out2(3, 5);
  MatMulInto(at, b, out2);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 5; ++c) {
      EXPECT_NEAR(out1.At(r, c), out2.At(r, c), 1e-4);
    }
  }
}

TEST(MatrixTest, XavierWithinLimit) {
  Rng rng(9);
  Matrix m = Matrix::Xavier(10, 20, rng);
  float limit = std::sqrt(6.0f / 30.0f);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::fabs(m.values()[i]), limit);
  }
}

// ---- Sparsemax ------------------------------------------------------------

TEST(SparsemaxTest, SumsToOne) {
  std::vector<double> p = Sparsemax({0.1, 0.5, -0.3, 0.2});
  double sum = std::accumulate(p.begin(), p.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(SparsemaxTest, NonNegative) {
  std::vector<double> p = Sparsemax({-5.0, 0.0, 5.0});
  for (double v : p) EXPECT_GE(v, 0.0);
}

TEST(SparsemaxTest, DominantEntryGetsEverything) {
  std::vector<double> p = Sparsemax({10.0, 0.0, 0.0});
  EXPECT_NEAR(p[0], 1.0, 1e-9);
  EXPECT_NEAR(p[1], 0.0, 1e-9);
}

TEST(SparsemaxTest, UniformInputYieldsUniformOutput) {
  std::vector<double> p = Sparsemax({0.0, 0.0, 0.0, 0.0});
  for (double v : p) EXPECT_NEAR(v, 0.25, 1e-9);
}

TEST(SparsemaxTest, KnownTwoElementCase) {
  // sparsemax([0.6, 0.4]) = [(0.6-0.4+1)/2, ...] = [0.6, 0.4].
  std::vector<double> p = Sparsemax({0.6, 0.4});
  EXPECT_NEAR(p[0], 0.6, 1e-9);
  EXPECT_NEAR(p[1], 0.4, 1e-9);
}

TEST(SparsemaxTest, ScaleIncreasesSparsity) {
  std::vector<double> z{0.9, 0.7, 0.5, 0.3, 0.1};
  auto nonzeros = [](const std::vector<double>& p) {
    int count = 0;
    for (double v : p) {
      if (v > 0) ++count;
    }
    return count;
  };
  EXPECT_GE(nonzeros(Sparsemax(z, 1.0)), nonzeros(Sparsemax(z, 10.0)));
  EXPECT_EQ(nonzeros(Sparsemax(z, 100.0)), 1);
}

TEST(SparsemaxTest, EmptyInput) { EXPECT_TRUE(Sparsemax({}).empty()); }

TEST(SparsemaxTest, InvariantToConstantShift) {
  std::vector<double> a = Sparsemax({0.5, 0.2, -0.1});
  std::vector<double> b = Sparsemax({10.5, 10.2, 9.9});
  for (size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-9);
}

/// Property sweep: output is always on the simplex for random inputs.
class SparsemaxPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SparsemaxPropertyTest, AlwaysOnSimplex) {
  Rng rng(GetParam());
  size_t n = 1 + rng.Index(12);
  std::vector<double> z(n);
  for (double& v : z) v = rng.Uniform(-3, 3);
  std::vector<double> p = Sparsemax(z, rng.Uniform(0.5, 20.0));
  double sum = 0;
  for (double v : p) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomVectors, SparsemaxPropertyTest,
                         ::testing::Range<uint64_t>(0, 20));

// ---- Optimizer ------------------------------------------------------------

TEST(AdamTest, MinimizesQuadratic) {
  // Minimize ||x - target||^2 over x.
  Var x = Parameter(Matrix::FromValues(1, 3, {5, -4, 2}));
  Matrix target = Matrix::FromValues(1, 3, {1, 2, 3});
  AdamOptimizer::Options options;
  options.learning_rate = 0.05f;
  AdamOptimizer optimizer({{"x", x}}, options);
  for (int step = 0; step < 500; ++step) {
    Var diff = Sub(x, Constant(target));
    Var loss = MeanAll(Mul(diff, diff));
    Backward(loss);
    optimizer.Step();
  }
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(x->value.At(0, c), target.At(0, c), 0.05);
  }
}

TEST(AdamTest, StepZeroesGradients) {
  Var x = Parameter(Matrix::FromValues(1, 1, {1}));
  AdamOptimizer optimizer({{"x", x}});
  Var loss = Mul(x, x);
  Backward(loss);
  EXPECT_NE(x->grad.At(0, 0), 0.0f);
  optimizer.Step();
  EXPECT_EQ(x->grad.At(0, 0), 0.0f);
}

TEST(AdamTest, GradClipBoundsUpdate) {
  Var x = Parameter(Matrix::FromValues(1, 1, {0}));
  AdamOptimizer::Options options;
  options.grad_clip_norm = 1.0f;
  options.learning_rate = 1.0f;
  AdamOptimizer optimizer({{"x", x}}, options);
  x->EnsureGrad();
  x->grad.At(0, 0) = 1000.0f;
  optimizer.Step();
  // Adam's first step moves by ~lr regardless, but the clipped gradient
  // must not explode the moments.
  EXPECT_LT(std::fabs(x->value.At(0, 0)), 2.0f);
}

bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Live-row Adam is dense Adam with the provably-zero rows skipped: on a
// pool that never looks up some embedding rows, both must leave every
// parameter and both moments bit-identical, also across clipped steps.
TEST(AdamTest, LiveRowsMatchDenseBitForBit) {
  const std::vector<std::vector<int>> pool = {
      {1, 3, 4}, {9, 4, 4, 10}, {3}, {10, 11, 1, 9}};
  const std::vector<int> live = {1, 3, 4, 9, 10, 11};
  const std::vector<float> loss_scale = {1, 40, 1, 60, 2, 1, 80, 1};

  struct Run {
    std::vector<NamedParam> params;
    std::vector<double> norms;
    std::unique_ptr<AdamOptimizer> optimizer;
  };
  auto train = [&](bool live_rows) {
    Rng rng(17);
    Embedding table(16, 8, rng, "emb");
    Linear proj(8, 3, rng, "proj");
    Run run;
    table.CollectParams(run.params);
    proj.CollectParams(run.params);
    AdamOptimizer::Options options;
    options.learning_rate = 0.01f;
    options.grad_clip_norm = 0.5f;
    run.optimizer = std::make_unique<AdamOptimizer>(run.params, options);
    if (live_rows) run.optimizer->SetLiveRows(0, live);
    for (size_t step = 0; step < loss_scale.size(); ++step) {
      Var out = Tanh(proj.Apply(table.Lookup(pool[step % pool.size()])));
      Backward(Scale(MeanAll(Mul(out, out)), loss_scale[step]));
      run.norms.push_back(run.optimizer->Step());
    }
    return run;
  };
  const Matrix initial = [] {
    Rng rng(17);
    return Embedding(16, 8, rng, "emb").table_value();
  }();

  Run dense = train(false);
  Run sparse = train(true);
  EXPECT_EQ(dense.norms, sparse.norms);
  int clipped = 0;
  for (double norm : dense.norms) clipped += norm > 0.5 ? 1 : 0;
  EXPECT_GT(clipped, 0) << "some step must clip";
  EXPECT_LT(clipped, static_cast<int>(dense.norms.size()))
      << "some step must not clip";
  for (size_t p = 0; p < dense.params.size(); ++p) {
    SCOPED_TRACE(dense.params[p].name);
    EXPECT_TRUE(BitEqual(dense.params[p].param->value,
                         sparse.params[p].param->value));
    EXPECT_TRUE(BitEqual(dense.optimizer->first_moments()[p],
                         sparse.optimizer->first_moments()[p]));
    EXPECT_TRUE(BitEqual(dense.optimizer->second_moments()[p],
                         sparse.optimizer->second_moments()[p]));
  }
  // The skipped rows really were untouched, and the live ones trained.
  const Matrix& trained = dense.params[0].param->value;
  for (int r = 0; r < 16; ++r) {
    const bool is_live =
        std::find(live.begin(), live.end(), r) != live.end();
    EXPECT_EQ(std::memcmp(trained.Row(r), initial.Row(r), 8 * sizeof(float)) ==
                  0,
              !is_live)
        << "row " << r;
  }
}

TEST(AdamTest, StepReturnsPreClipGlobalNorm) {
  Var a = Parameter(Matrix::FromValues(1, 2, {0, 0}));
  Var b = Parameter(Matrix::FromValues(1, 1, {0}));
  AdamOptimizer::Options options;
  options.grad_clip_norm = 1.0f;
  AdamOptimizer optimizer({{"a", a}, {"b", b}}, options);
  a->EnsureGrad();
  b->EnsureGrad();
  a->grad.At(0, 0) = 3.0f;
  b->grad.At(0, 0) = 4.0f;
  const double expected = GlobalGradNorm(optimizer.params());
  EXPECT_EQ(optimizer.Step(), expected);
  EXPECT_DOUBLE_EQ(expected, 5.0);
}

// Clipping is on the *global* norm: a two-tensor gradient of norms 3 and 4
// (global norm 5) clipped to 1 scales both tensors by 1/5 jointly —
// per-tensor clipping would have scaled them by 1/3 and 1/4 instead.
TEST(ClipGlobalGradNormTest, TwoTensorsScaledJointly) {
  Var a = Parameter(Matrix::FromValues(1, 1, {0}));
  Var b = Parameter(Matrix::FromValues(1, 2, {0, 0}));
  std::vector<NamedParam> params{{"a", a}, {"b", b}};
  a->EnsureGrad();
  b->EnsureGrad();
  a->grad.At(0, 0) = 3.0f;
  b->grad.At(0, 0) = 4.0f;

  EXPECT_NEAR(GlobalGradNorm(params), 5.0, 1e-6);
  double pre_clip = ClipGlobalGradNorm(params, 1.0);
  EXPECT_NEAR(pre_clip, 5.0, 1e-6);
  EXPECT_NEAR(a->grad.At(0, 0), 3.0f / 5.0f, 1e-6);
  EXPECT_NEAR(b->grad.At(0, 0), 4.0f / 5.0f, 1e-6);
  EXPECT_NEAR(GlobalGradNorm(params), 1.0, 1e-6);
}

TEST(ClipGlobalGradNormTest, UnderLimitIsUntouched) {
  Var a = Parameter(Matrix::FromValues(1, 1, {0}));
  std::vector<NamedParam> params{{"a", a}};
  a->EnsureGrad();
  a->grad.At(0, 0) = 0.5f;
  ClipGlobalGradNorm(params, 1.0);
  EXPECT_FLOAT_EQ(a->grad.At(0, 0), 0.5f);
  // 0 disables clipping entirely.
  a->grad.At(0, 0) = 100.0f;
  ClipGlobalGradNorm(params, 0.0);
  EXPECT_FLOAT_EQ(a->grad.At(0, 0), 100.0f);
}

TEST(SnapshotTest, RestoreRoundTrip) {
  Var x = Parameter(Matrix::FromValues(1, 2, {1, 2}));
  std::vector<NamedParam> params{{"x", x}};
  std::vector<Matrix> snapshot = SnapshotParams(params);
  x->value.At(0, 0) = 99;
  RestoreParams(params, snapshot);
  EXPECT_FLOAT_EQ(x->value.At(0, 0), 1.0f);
}

// ---- Layers ---------------------------------------------------------------

TEST(LayersTest, LinearShapes) {
  Rng rng(1);
  Linear layer(4, 7, rng, "l");
  Var x = Constant(Matrix::Gaussian(3, 4, 1.0f, rng));
  Var y = layer.Apply(x);
  EXPECT_EQ(y->value.rows(), 3);
  EXPECT_EQ(y->value.cols(), 7);
}

TEST(LayersTest, EmbeddingLookupShapes) {
  Rng rng(2);
  Embedding emb(10, 5, rng, "e");
  Var out = emb.Lookup({1, 3, 3});
  EXPECT_EQ(out->value.rows(), 3);
  EXPECT_EQ(out->value.cols(), 5);
  // Duplicate ids produce identical rows.
  for (int c = 0; c < 5; ++c) {
    EXPECT_FLOAT_EQ(out->value.At(1, c), out->value.At(2, c));
  }
}

TEST(LayersTest, LayerNormNormalizesRows) {
  LayerNormLayer ln(8, "ln");
  Rng rng(3);
  Var x = Constant(Matrix::Gaussian(4, 8, 3.0f, rng));
  Var y = ln.Apply(x);
  for (int r = 0; r < 4; ++r) {
    double mean = 0, var = 0;
    for (int c = 0; c < 8; ++c) mean += y->value.At(r, c);
    mean /= 8;
    for (int c = 0; c < 8; ++c) {
      double d = y->value.At(r, c) - mean;
      var += d * d;
    }
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(LayersTest, TransformerBlockPreservesShape) {
  Rng rng(4);
  TransformerBlock block(16, rng, "b");
  Var x = Constant(Matrix::Gaussian(5, 16, 1.0f, rng));
  Var y = block.Apply(x, NeighborLists::Full(5));
  EXPECT_EQ(y->value.rows(), 5);
  EXPECT_EQ(y->value.cols(), 16);
}

TEST(LayersTest, ParamCollection) {
  Rng rng(5);
  TransformerBlock block(8, rng, "b");
  std::vector<NamedParam> params;
  block.CollectParams(params);
  EXPECT_EQ(params.size(), 16u);  // 2 LN x2 + 6 linears x2
  for (const NamedParam& np : params) {
    EXPECT_TRUE(np.param->requires_grad);
    EXPECT_FALSE(np.name.empty());
  }
}

// ---- Ops (forward behaviour) ----------------------------------------------

TEST(OpsTest, RowSoftmaxRowsSumToOne) {
  Matrix logits = Matrix::FromValues(2, 3, {1, 2, 3, -1, 0, 1});
  Matrix probs = RowSoftmax(logits);
  for (int r = 0; r < 2; ++r) {
    double sum = 0;
    for (int c = 0; c < 3; ++c) sum += probs.At(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
  EXPECT_GT(probs.At(0, 2), probs.At(0, 0));
}

TEST(OpsTest, NeighborAttentionSelfOnlyIsIdentityOnV) {
  Rng rng(6);
  Matrix v = Matrix::Gaussian(3, 4, 1.0f, rng);
  Var q = Constant(Matrix::Gaussian(3, 4, 1.0f, rng));
  Var k = Constant(Matrix::Gaussian(3, 4, 1.0f, rng));
  Var vv = Constant(v);
  std::vector<std::vector<int>> self_only{{0}, {1}, {2}};
  Var out = NeighborAttention(q, k, vv, NeighborLists::FromRows(self_only));
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_NEAR(out->value.At(r, c), v.At(r, c), 1e-5);
    }
  }
}

TEST(OpsTest, SoftmaxCrossEntropyPerfectPredictionNearZero) {
  Matrix logits = Matrix::FromValues(2, 2, {20, 0, 0, 20});
  Var loss = SoftmaxCrossEntropy(Constant(logits), {0, 1});
  EXPECT_NEAR(loss->value.At(0, 0), 0.0, 1e-6);
}

TEST(OpsTest, SoftmaxCrossEntropyUniformIsLogC) {
  Matrix logits = Matrix::Zeros(1, 4);
  Var loss = SoftmaxCrossEntropy(Constant(logits), {2});
  EXPECT_NEAR(loss->value.At(0, 0), std::log(4.0), 1e-5);
}

TEST(OpsTest, ClassWeightsRescaleLoss) {
  Matrix logits = Matrix::Zeros(2, 2);
  Var unweighted = SoftmaxCrossEntropy(Constant(logits), {0, 1});
  Var weighted =
      SoftmaxCrossEntropy(Constant(logits), {0, 1}, {0.5f, 0.5f});
  // Equal weights cancel in the weighted mean.
  EXPECT_NEAR(unweighted->value.At(0, 0), weighted->value.At(0, 0), 1e-6);
}

TEST(OpsTest, BceWithLogitsKnownValues) {
  Matrix logits = Matrix::FromValues(2, 1, {0, 0});
  Var loss = BinaryCrossEntropyWithLogits(Constant(logits), {1.0f, 0.0f});
  EXPECT_NEAR(loss->value.At(0, 0), std::log(2.0), 1e-6);
}

TEST(OpsTest, MaxPoolRowsPicksColumnMaxima) {
  Matrix m = Matrix::FromValues(3, 2, {1, 9, 5, 2, 3, 4});
  Var out = MaxPoolRows(Constant(m));
  EXPECT_FLOAT_EQ(out->value.At(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(out->value.At(0, 1), 9.0f);
}

// ---- Serialization --------------------------------------------------------

TEST(SerializeTest, RoundTrip) {
  Rng rng(7);
  Var a = Parameter(Matrix::Gaussian(3, 4, 1.0f, rng));
  Var b = Parameter(Matrix::Gaussian(1, 2, 1.0f, rng));
  std::vector<NamedParam> params{{"a", a}, {"b", b}};
  std::string path = ::testing::TempDir() + "/ckpt_roundtrip.bin";
  ASSERT_TRUE(SaveCheckpoint(path, params));

  Var a2 = Parameter(Matrix::Zeros(3, 4));
  Var b2 = Parameter(Matrix::Zeros(1, 2));
  std::vector<NamedParam> params2{{"a", a2}, {"b", b2}};
  ASSERT_TRUE(LoadCheckpoint(path, params2));
  EXPECT_EQ(a->value, a2->value);
  EXPECT_EQ(b->value, b2->value);
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileFails) {
  Var a = Parameter(Matrix::Zeros(1, 1));
  EXPECT_FALSE(LoadCheckpoint("/nonexistent/path/x.bin", {{"a", a}}));
}

TEST(SerializeTest, ShapeMismatchFails) {
  Var a = Parameter(Matrix::Zeros(2, 2));
  std::string path = ::testing::TempDir() + "/ckpt_mismatch.bin";
  ASSERT_TRUE(SaveCheckpoint(path, {{"a", a}}));
  Var wrong = Parameter(Matrix::Zeros(3, 3));
  EXPECT_FALSE(LoadCheckpoint(path, {{"a", wrong}}));
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingParamNameFails) {
  Var a = Parameter(Matrix::Zeros(1, 1));
  std::string path = ::testing::TempDir() + "/ckpt_name.bin";
  ASSERT_TRUE(SaveCheckpoint(path, {{"a", a}}));
  Var b = Parameter(Matrix::Zeros(1, 1));
  EXPECT_FALSE(LoadCheckpoint(path, {{"b", b}}));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fieldswap
