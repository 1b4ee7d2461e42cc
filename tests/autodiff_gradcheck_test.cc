#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "nn/autodiff.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/sparsemax.h"
#include "util/rng.h"

namespace fieldswap {
namespace {

/// Numerical gradient check: builds loss = f(param) twice per entry with
/// central differences and compares against the reverse-mode gradient.
void CheckGradient(Var param, const std::function<Var(const Var&)>& f,
                   double tolerance = 2e-2) {
  Var loss = f(param);
  ASSERT_EQ(loss->value.rows(), 1);
  ASSERT_EQ(loss->value.cols(), 1);
  param->EnsureGrad();
  param->grad.Zero();
  Backward(loss);
  Matrix analytic = param->grad;

  const float eps = 1e-2f;
  for (int r = 0; r < param->value.rows(); ++r) {
    for (int c = 0; c < param->value.cols(); ++c) {
      float saved = param->value.At(r, c);
      param->value.At(r, c) = saved + eps;
      double up = f(param)->value.At(0, 0);
      param->value.At(r, c) = saved - eps;
      double down = f(param)->value.At(0, 0);
      param->value.At(r, c) = saved;
      double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(analytic.At(r, c), numeric,
                  tolerance * std::max(1.0, std::fabs(numeric)))
          << "entry (" << r << "," << c << ")";
    }
  }
}

Matrix RandomMatrix(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  return Matrix::Gaussian(rows, cols, 0.8f, seed % 2 == 0 ? rng : rng);
}

TEST(GradCheckTest, Add) {
  Var p = Parameter(RandomMatrix(2, 3, 1));
  Var other = Constant(RandomMatrix(2, 3, 2));
  CheckGradient(p, [&](const Var& x) { return MeanAll(Add(x, other)); });
}

TEST(GradCheckTest, AddRowBroadcast) {
  Var bias = Parameter(RandomMatrix(1, 4, 3));
  Var base = Constant(RandomMatrix(3, 4, 4));
  CheckGradient(bias, [&](const Var& b) {
    Var sum = AddRowBroadcast(base, b);
    return MeanAll(Mul(sum, sum));
  });
}

TEST(GradCheckTest, SubAndMul) {
  Var p = Parameter(RandomMatrix(2, 2, 5));
  Var other = Constant(RandomMatrix(2, 2, 6));
  CheckGradient(p, [&](const Var& x) {
    return MeanAll(Mul(Sub(x, other), Add(x, other)));
  });
}

TEST(GradCheckTest, Scale) {
  Var p = Parameter(RandomMatrix(2, 2, 7));
  CheckGradient(p, [&](const Var& x) { return MeanAll(Scale(x, -2.5f)); });
}

TEST(GradCheckTest, ReluAwayFromKink) {
  // Keep entries away from 0 where ReLU is non-differentiable.
  Var p = Parameter(Matrix::FromValues(1, 4, {1.0f, -1.0f, 2.0f, -0.5f}));
  CheckGradient(p, [&](const Var& x) { return MeanAll(Relu(x)); });
}

TEST(GradCheckTest, TanhAndSigmoid) {
  Var p = Parameter(RandomMatrix(2, 3, 8));
  CheckGradient(p, [&](const Var& x) { return MeanAll(Tanh(x)); });
  Var q = Parameter(RandomMatrix(2, 3, 9));
  CheckGradient(q, [&](const Var& x) { return MeanAll(Sigmoid(x)); });
}

TEST(GradCheckTest, MatMulLeft) {
  Var p = Parameter(RandomMatrix(2, 3, 10));
  Var other = Constant(RandomMatrix(3, 4, 11));
  CheckGradient(p, [&](const Var& x) {
    Var y = MatMul(x, other);
    return MeanAll(Mul(y, y));
  });
}

TEST(GradCheckTest, MatMulRight) {
  Var p = Parameter(RandomMatrix(3, 4, 12));
  Var other = Constant(RandomMatrix(2, 3, 13));
  CheckGradient(p, [&](const Var& x) {
    Var y = MatMul(other, x);
    return MeanAll(Mul(y, y));
  });
}

TEST(GradCheckTest, ConcatCols) {
  Var p = Parameter(RandomMatrix(2, 2, 14));
  Var other = Constant(RandomMatrix(2, 3, 15));
  CheckGradient(p, [&](const Var& x) {
    Var y = ConcatCols(x, other);
    return MeanAll(Mul(y, y));
  });
  // Gradient also flows through the right side.
  Var q = Parameter(RandomMatrix(2, 3, 16));
  Var left = Constant(RandomMatrix(2, 2, 17));
  CheckGradient(q, [&](const Var& x) {
    Var y = ConcatCols(left, x);
    return MeanAll(Mul(y, y));
  });
}

TEST(GradCheckTest, SliceRows) {
  Var p = Parameter(RandomMatrix(4, 3, 18));
  CheckGradient(p, [&](const Var& x) {
    Var y = SliceRows(x, 1, 2);
    return MeanAll(Mul(y, y));
  });
}

TEST(GradCheckTest, GatherRowsWithDuplicates) {
  Var table = Parameter(RandomMatrix(5, 3, 19));
  CheckGradient(table, [&](const Var& t) {
    Var y = GatherRows(t, {0, 2, 2, 4});
    return MeanAll(Mul(y, y));
  });
}

TEST(GradCheckTest, MaxPoolRows) {
  // Distinct values so the argmax is stable under the probe epsilon.
  Var p = Parameter(Matrix::FromValues(3, 2, {1, 9, 5, 2, 3, 4}));
  CheckGradient(p, [&](const Var& x) {
    Var y = MaxPoolRows(x);
    return MeanAll(Mul(y, y));
  });
}

TEST(GradCheckTest, MeanRows) {
  Var p = Parameter(RandomMatrix(3, 4, 20));
  CheckGradient(p, [&](const Var& x) {
    Var y = MeanRows(x);
    return MeanAll(Mul(y, y));
  });
}

TEST(GradCheckTest, LayerNorm) {
  Var p = Parameter(RandomMatrix(2, 6, 21));
  Var gain = Constant(Matrix::Full(1, 6, 1.3f));
  Var bias = Constant(Matrix::Full(1, 6, 0.2f));
  CheckGradient(
      p,
      [&](const Var& x) {
        Var y = LayerNorm(x, gain, bias);
        Var weights = Constant(RandomMatrix(2, 6, 22));
        return MeanAll(Mul(y, weights));
      },
      /*tolerance=*/5e-2);
}

TEST(GradCheckTest, LayerNormGainAndBias) {
  Var gain = Parameter(Matrix::Full(1, 4, 1.0f));
  Var bias = Parameter(Matrix::Full(1, 4, 0.0f));
  Var x = Constant(RandomMatrix(3, 4, 23));
  Var weights = Constant(RandomMatrix(3, 4, 24));
  CheckGradient(gain, [&](const Var& g) {
    return MeanAll(Mul(LayerNorm(x, g, bias), weights));
  });
  CheckGradient(bias, [&](const Var& b) {
    return MeanAll(Mul(LayerNorm(x, gain, b), weights));
  });
}

TEST(GradCheckTest, NeighborAttentionQ) {
  std::vector<std::vector<int>> neighbors{{0, 1}, {0, 1, 2}, {2}};
  Var q = Parameter(RandomMatrix(3, 4, 25));
  Var k = Constant(RandomMatrix(3, 4, 26));
  Var v = Constant(RandomMatrix(3, 4, 27));
  Var weights = Constant(RandomMatrix(3, 4, 28));
  CheckGradient(q, [&](const Var& x) {
    return MeanAll(Mul(NeighborAttention(x, k, v, NeighborLists::FromRows(neighbors)), weights));
  });
}

TEST(GradCheckTest, NeighborAttentionK) {
  std::vector<std::vector<int>> neighbors{{0, 1, 2}, {1, 2}, {0, 2}};
  Var q = Constant(RandomMatrix(3, 4, 29));
  Var k = Parameter(RandomMatrix(3, 4, 30));
  Var v = Constant(RandomMatrix(3, 4, 31));
  Var weights = Constant(RandomMatrix(3, 4, 32));
  CheckGradient(k, [&](const Var& x) {
    return MeanAll(Mul(NeighborAttention(q, x, v, NeighborLists::FromRows(neighbors)), weights));
  });
}

TEST(GradCheckTest, NeighborAttentionV) {
  std::vector<std::vector<int>> neighbors{{0, 1, 2}, {0}, {1, 2}};
  Var q = Constant(RandomMatrix(3, 4, 33));
  Var k = Constant(RandomMatrix(3, 4, 34));
  Var v = Parameter(RandomMatrix(3, 4, 35));
  Var weights = Constant(RandomMatrix(3, 4, 36));
  CheckGradient(v, [&](const Var& x) {
    return MeanAll(Mul(NeighborAttention(q, k, x, NeighborLists::FromRows(neighbors)), weights));
  });
}

TEST(GradCheckTest, SoftmaxCrossEntropy) {
  Var logits = Parameter(RandomMatrix(3, 4, 37));
  CheckGradient(logits, [&](const Var& x) {
    return SoftmaxCrossEntropy(x, {1, 0, 3});
  });
}

TEST(GradCheckTest, SoftmaxCrossEntropyExtremeLogitsMatchesClampedForward) {
  // Row 0 puts ~exp(-80) on its true class: the forward clamps
  // p = max(p, 1e-12), so the loss is flat in every logit of that row and
  // the consistent backward is exactly zero there (ISSUE 7 bugfix — the
  // unclamped backward reported a huge gradient the forward never sees).
  // Row 1 is an ordinary row and must keep its usual gradient.
  Matrix extreme = Matrix::FromValues(
      2, 3, {40.0f, -40.0f, 0.0f, 0.5f, -0.2f, 0.1f});
  Var logits = Parameter(extreme);
  Var loss = SoftmaxCrossEntropy(logits, {1, 2});
  logits->EnsureGrad();
  logits->grad.Zero();
  Backward(loss);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(logits->grad.At(0, c), 0.0f) << "clamped row, col " << c;
  }
  EXPECT_NE(logits->grad.At(1, 2), 0.0f) << "ordinary row lost its gradient";

  // Central differences agree: the flat row contributes zero numerically
  // too, so analytic-vs-numeric holds across the clamp boundary.
  Var fresh = Parameter(extreme);
  CheckGradient(fresh, [&](const Var& x) {
    return SoftmaxCrossEntropy(x, {1, 2});
  });
}

TEST(GradCheckTest, SoftmaxCrossEntropyWithClassWeights) {
  Var logits = Parameter(RandomMatrix(3, 4, 38));
  CheckGradient(logits, [&](const Var& x) {
    return SoftmaxCrossEntropy(x, {1, 0, 3}, {0.2f, 1.0f, 1.0f, 2.0f});
  });
}

TEST(GradCheckTest, BinaryCrossEntropy) {
  Var logits = Parameter(RandomMatrix(4, 1, 39));
  CheckGradient(logits, [&](const Var& x) {
    return BinaryCrossEntropyWithLogits(x, {1.0f, 0.0f, 1.0f, 0.0f});
  });
}

TEST(GradCheckTest, CompositeGraphWithSharedSubexpression) {
  // y used twice: checks gradient accumulation through fan-out.
  Var p = Parameter(RandomMatrix(2, 2, 40));
  CheckGradient(p, [&](const Var& x) {
    Var y = Tanh(x);
    return MeanAll(Add(Mul(y, y), y));
  });
}

TEST(GradCheckTest, GradientPrunedForConstants) {
  Var c = Constant(RandomMatrix(2, 2, 41));
  Var p = Parameter(RandomMatrix(2, 2, 42));
  Var loss = MeanAll(Mul(p, c));
  Backward(loss);
  // Constants never allocate gradient storage via the backward pass.
  EXPECT_TRUE(c->grad.empty());
  EXPECT_FALSE(p->grad.empty());
}

// ---- Sparsemax boundary cases ---------------------------------------------
//
// Sparsemax is a simplex projection used outside the autodiff graph (token
// selection, Sec. II-A2), so these are exact-value checks of the piecewise
// boundaries rather than gradient probes.

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

TEST(SparsemaxBoundaryTest, AllEqualLogitsGiveUniform) {
  for (double value : {-3.0, 0.0, 42.0}) {
    std::vector<double> p = Sparsemax({value, value, value, value});
    ASSERT_EQ(p.size(), 4u);
    for (double pi : p) EXPECT_NEAR(pi, 0.25, 1e-12) << "logit " << value;
  }
}

TEST(SparsemaxBoundaryTest, TiedLeadersShareMassEqually) {
  // Two leaders tied far above the rest: exactly those two split the mass.
  std::vector<double> p = Sparsemax({2.0, 2.0, 0.0});
  ASSERT_EQ(p.size(), 3u);
  EXPECT_NEAR(p[0], 0.5, 1e-12);
  EXPECT_NEAR(p[1], 0.5, 1e-12);
  EXPECT_NEAR(p[2], 0.0, 1e-12);
}

TEST(SparsemaxBoundaryTest, ProjectionSatisfiesKkt) {
  // Simplex-projection KKT conditions: p >= 0, sum(p) = 1, and for every
  // pair with p_i > 0 and p_j > 0, z_i - p_i == z_j - p_j (shared
  // threshold tau); supported entries dominate unsupported ones.
  Rng rng(2718);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> z;
    size_t n = 1 + rng.Index(6);
    for (size_t i = 0; i < n; ++i) z.push_back(rng.Gaussian(0, 3));
    std::vector<double> p = Sparsemax(z);
    ASSERT_EQ(p.size(), z.size());
    EXPECT_NEAR(Sum(p), 1.0, 1e-9);
    double tau = 0;
    bool have_tau = false;
    for (size_t i = 0; i < p.size(); ++i) {
      EXPECT_GE(p[i], 0.0);
      if (p[i] <= 0) continue;
      if (!have_tau) {
        tau = z[i] - p[i];
        have_tau = true;
      } else {
        EXPECT_NEAR(z[i] - p[i], tau, 1e-9);
      }
    }
    ASSERT_TRUE(have_tau);
    // Unsupported entries are at or below the threshold.
    for (size_t i = 0; i < p.size(); ++i) {
      if (p[i] <= 0) {
        EXPECT_LE(z[i], tau + 1e-9);
      }
    }
  }
}

TEST(SparsemaxBoundaryTest, ScaleSharpensSupport) {
  std::vector<double> z = {1.0, 0.6, 0.2, -0.4};
  auto support = [](const std::vector<double>& p) {
    int n = 0;
    for (double pi : p) n += pi > 0 ? 1 : 0;
    return n;
  };
  EXPECT_EQ(support(Sparsemax(z, 100.0)), 1);
  EXPECT_GE(support(Sparsemax(z, 0.01)), support(Sparsemax(z, 1.0)));
  // Scale 1 matches the plain overload.
  std::vector<double> a = Sparsemax(z);
  std::vector<double> b = Sparsemax(z, 1.0);
  for (size_t i = 0; i < z.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(SparsemaxBoundaryTest, SingleAndEmptyInputs) {
  std::vector<double> one = Sparsemax({-7.5});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_NEAR(one[0], 1.0, 1e-12);
  EXPECT_TRUE(Sparsemax({}).empty());
}

// ---- Global gradient-norm clipping ----------------------------------------

std::vector<NamedParam> TwoParams(Matrix ga, Matrix gb) {
  Var a = Parameter(Matrix::Full(ga.rows(), ga.cols(), 0.0f));
  Var b = Parameter(Matrix::Full(gb.rows(), gb.cols(), 0.0f));
  a->EnsureGrad();
  b->EnsureGrad();
  a->grad = std::move(ga);
  b->grad = std::move(gb);
  return {{"a", a}, {"b", b}};
}

TEST(GlobalGradClipTest, NormMatchesHandComputation) {
  // Grads (3, 4) and (12,): norm = sqrt(9 + 16 + 144) = 13.
  auto params = TwoParams(Matrix::FromValues(1, 2, {3.0f, 4.0f}),
                          Matrix::FromValues(1, 1, {12.0f}));
  EXPECT_NEAR(GlobalGradNorm(params), 13.0, 1e-6);
}

TEST(GlobalGradClipTest, JointScalePreservesDirection) {
  auto params = TwoParams(Matrix::FromValues(1, 2, {3.0f, 4.0f}),
                          Matrix::FromValues(1, 1, {12.0f}));
  double pre = ClipGlobalGradNorm(params, 6.5);
  EXPECT_NEAR(pre, 13.0, 1e-6);
  // All tensors share one scale factor (13 -> 6.5 is exactly 0.5).
  EXPECT_NEAR(params[0].param->grad.At(0, 0), 1.5, 1e-6);
  EXPECT_NEAR(params[0].param->grad.At(0, 1), 2.0, 1e-6);
  EXPECT_NEAR(params[1].param->grad.At(0, 0), 6.0, 1e-6);
  EXPECT_NEAR(GlobalGradNorm(params), 6.5, 1e-5);
}

TEST(GlobalGradClipTest, NoOpUnderTheLimitOrWhenDisabled) {
  auto params = TwoParams(Matrix::FromValues(1, 2, {3.0f, 4.0f}),
                          Matrix::FromValues(1, 1, {12.0f}));
  EXPECT_NEAR(ClipGlobalGradNorm(params, 100.0), 13.0, 1e-6);
  EXPECT_NEAR(params[1].param->grad.At(0, 0), 12.0, 1e-6);
  // max_norm <= 0 disables clipping entirely.
  EXPECT_NEAR(ClipGlobalGradNorm(params, 0.0), 13.0, 1e-6);
  EXPECT_NEAR(params[1].param->grad.At(0, 0), 12.0, 1e-6);
}

TEST(GlobalGradClipTest, UnreachedParamsCountAsZero) {
  // A parameter Backward never visited has an empty grad; the global norm
  // treats it as zero instead of crashing.
  Var reached = Parameter(Matrix::FromValues(1, 1, {5.0f}));
  reached->EnsureGrad();
  reached->grad = Matrix::FromValues(1, 1, {5.0f});
  Var unreached = Parameter(Matrix::FromValues(1, 1, {1.0f}));
  std::vector<NamedParam> params = {{"r", reached}, {"u", unreached}};
  EXPECT_NEAR(GlobalGradNorm(params), 5.0, 1e-6);
  double pre = ClipGlobalGradNorm(params, 2.5);
  EXPECT_NEAR(pre, 5.0, 1e-6);
  EXPECT_NEAR(reached->grad.At(0, 0), 2.5, 1e-6);
}

}  // namespace
}  // namespace fieldswap
