#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "nn/kernels/backend.h"
#include "util/logging.h"

namespace fieldswap {
namespace {

bool AnyNeedsGrad(const std::vector<Var>& vars) {
  for (const Var& v : vars) {
    if (v->requires_grad || !v->parents.empty()) return true;
  }
  return false;
}

Var MakeFusedOp(Matrix value, std::vector<Var> parents,
                std::function<void(Node&)> backward_fn) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  if (AnyNeedsGrad(parents)) {
    node->parents = std::move(parents);
    node->backward_fn = std::move(backward_fn);
  }
  return node;
}

bool WantsGrad(const Var& v) { return v->requires_grad || !v->parents.empty(); }

}  // namespace

Var LayerNorm(const Var& x, const Var& gain, const Var& bias, float epsilon) {
  const int rows = x->value.rows();
  const int d = x->value.cols();
  FS_CHECK_EQ(gain->value.rows(), 1);
  FS_CHECK_EQ(gain->value.cols(), d);
  FS_CHECK_EQ(bias->value.rows(), 1);
  FS_CHECK_EQ(bias->value.cols(), d);

  Matrix out(rows, d);
  // Saved for backward: per-row inverse stddev and normalized values.
  auto inv_std = std::make_shared<std::vector<float>>(static_cast<size_t>(rows));
  auto normed = std::make_shared<Matrix>(rows, d);

  nn::ActiveKernels().layer_norm(x->value.data(), gain->value.Row(0),
                                 bias->value.Row(0), rows, d, epsilon,
                                 out.data(), normed->data(), inv_std->data());

  return MakeFusedOp(
      std::move(out), {x, gain, bias},
      [x, gain, bias, inv_std, normed, rows, d](Node& self) {
        const float* g = gain->value.Row(0);
        if (WantsGrad(gain)) gain->EnsureGrad();
        if (WantsGrad(bias)) bias->EnsureGrad();
        if (WantsGrad(x)) x->EnsureGrad();
        for (int r = 0; r < rows; ++r) {
          const float* grow = self.grad.Row(r);
          const float* nrow = normed->Row(r);
          if (WantsGrad(gain)) {
            float* gg = gain->grad.Row(0);
            for (int c = 0; c < d; ++c) gg[c] += grow[c] * nrow[c];
          }
          if (WantsGrad(bias)) {
            float* bg = bias->grad.Row(0);
            for (int c = 0; c < d; ++c) bg[c] += grow[c];
          }
          if (WantsGrad(x)) {
            // dl/dn = grow * gain; then layernorm backward:
            // dx = inv_std * (dn - mean(dn) - n * mean(dn * n))
            float mean_dn = 0, mean_dn_n = 0;
            for (int c = 0; c < d; ++c) {
              float dn = grow[c] * g[c];
              mean_dn += dn;
              mean_dn_n += dn * nrow[c];
            }
            mean_dn /= static_cast<float>(d);
            mean_dn_n /= static_cast<float>(d);
            float is = (*inv_std)[static_cast<size_t>(r)];
            float* xg = x->grad.Row(r);
            for (int c = 0; c < d; ++c) {
              float dn = grow[c] * g[c];
              xg[c] += is * (dn - mean_dn - nrow[c] * mean_dn_n);
            }
          }
        }
      });
}

Var NeighborAttention(const Var& q, const Var& k, const Var& v,
                      std::shared_ptr<const NeighborLists> neighbors) {
  const int t = q->value.rows();
  const int d = q->value.cols();
  FS_CHECK_EQ(k->value.cols(), d);
  FS_CHECK_EQ(v->value.cols(), d);
  FS_CHECK_EQ(k->value.rows(), v->value.rows());
  FS_CHECK(neighbors != nullptr);
  FS_CHECK_EQ(neighbors->rows(), t);

  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(d));
  Matrix out(t, d);
  // Attention weights, saved for backward: row i's weights sit at the same
  // offsets as its neighbor indices.
  auto weights =
      std::make_shared<std::vector<float>>(neighbors->indices.size());

  const nn::Kernels& kernels = nn::ActiveKernels();
  for (int i = 0; i < t; ++i) {
    std::span<const int> ns = neighbors->Row(i);
    FS_CHECK(!ns.empty()) << "empty neighbor list for row " << i;
    float* a = weights->data() + neighbors->offsets[static_cast<size_t>(i)];
    kernels.attention_row(q->value.Row(i), k->value.data(), v->value.data(),
                          ns.data(), static_cast<int>(ns.size()), d,
                          inv_sqrt_d, a, out.Row(i));
  }

  return MakeFusedOp(
      std::move(out), {q, k, v},
      [q, k, v, weights, nbrs = std::move(neighbors), t, d,
       inv_sqrt_d](Node& self) {
        const bool gq = WantsGrad(q);
        const bool gk = WantsGrad(k);
        const bool gv = WantsGrad(v);
        if (gq) q->EnsureGrad();
        if (gk) k->EnsureGrad();
        if (gv) v->EnsureGrad();
        const nn::Kernels& kernels = nn::ActiveKernels();
        std::vector<float> da;
        for (int i = 0; i < t; ++i) {
          std::span<const int> ns = nbrs->Row(i);
          const float* a =
              weights->data() + nbrs->offsets[static_cast<size_t>(i)];
          const float* grow = self.grad.Row(i);
          da.assign(ns.size(), 0.0f);
          float dot_a_da = 0;
          for (size_t j = 0; j < ns.size(); ++j) {
            if (gv) {
              kernels.axpy(a[j], grow, v->grad.Row(ns[j]), d);
            }
            da[j] = kernels.dot(grow, v->value.Row(ns[j]), d);
            dot_a_da += a[j] * da[j];
          }
          if (!gq && !gk) continue;
          const float* qrow = q->value.Row(i);
          float* qg = gq ? q->grad.Row(i) : nullptr;
          // Every score gradient is applied unconditionally: skipping
          // bit-exact zeros would make the executed FLOP sequence
          // data-dependent, breaking scalar-vs-SIMD comparability (ISSUE 7).
          for (size_t j = 0; j < ns.size(); ++j) {
            float ds = a[j] * (da[j] - dot_a_da) * inv_sqrt_d;
            const float* krow = k->value.Row(ns[j]);
            if (gq) {
              kernels.axpy(ds, krow, qg, d);
            }
            if (gk) {
              kernels.axpy(ds, qrow, k->grad.Row(ns[j]), d);
            }
          }
        }
      });
}

Var SoftmaxCrossEntropy(const Var& logits, std::vector<int> labels,
                        std::vector<float> class_weights) {
  const int n = logits->value.rows();
  const int c = logits->value.cols();
  FS_CHECK_EQ(static_cast<int>(labels.size()), n);
  FS_CHECK_GT(n, 0);
  if (!class_weights.empty()) {
    FS_CHECK_EQ(static_cast<int>(class_weights.size()), c);
  }

  auto probs = std::make_shared<Matrix>(RowSoftmax(logits->value));
  auto row_weights = std::make_shared<std::vector<float>>(
      static_cast<size_t>(n), 1.0f);
  double total_weight = 0;
  double loss_sum = 0;
  for (int i = 0; i < n; ++i) {
    int y = labels[static_cast<size_t>(i)];
    FS_CHECK_GE(y, 0);
    FS_CHECK_LT(y, c);
    float w = class_weights.empty() ? 1.0f
                                    : class_weights[static_cast<size_t>(y)];
    (*row_weights)[static_cast<size_t>(i)] = w;
    total_weight += w;
    float p = std::max(probs->At(i, y), 1e-12f);
    loss_sum -= static_cast<double>(w) * std::log(p);
  }
  if (total_weight <= 0) total_weight = 1;
  Matrix out(1, 1);
  out.At(0, 0) = static_cast<float>(loss_sum / total_weight);

  return MakeFusedOp(
      std::move(out), {logits},
      [logits, probs, row_weights, labels = std::move(labels), n, c,
       total_weight](Node& self) {
        if (!WantsGrad(logits)) return;
        logits->EnsureGrad();
        float g = self.grad.At(0, 0) / static_cast<float>(total_weight);
        for (int i = 0; i < n; ++i) {
          float w = (*row_weights)[static_cast<size_t>(i)] * g;
          const float* prow = probs->Row(i);
          float* lrow = logits->grad.Row(i);
          int y = labels[static_cast<size_t>(i)];
          // A row whose true-class probability was clamped in the forward
          // (p_y < 1e-12) sits on the flat part of -log(max(p, 1e-12)), so
          // its gradient is exactly zero; the unclamped formula would push
          // a huge spurious gradient through logits the loss never saw.
          if (prow[y] < 1e-12f) continue;
          for (int j = 0; j < c; ++j) {
            lrow[j] += w * (prow[j] - (j == y ? 1.0f : 0.0f));
          }
        }
      });
}

Var BinaryCrossEntropyWithLogits(const Var& logits,
                                 std::vector<float> targets) {
  const int n = logits->value.rows();
  FS_CHECK_EQ(logits->value.cols(), 1);
  FS_CHECK_EQ(static_cast<int>(targets.size()), n);
  FS_CHECK_GT(n, 0);

  auto sigm = std::make_shared<std::vector<float>>(static_cast<size_t>(n));
  double loss_sum = 0;
  for (int i = 0; i < n; ++i) {
    float z = logits->value.At(i, 0);
    float p = 1.0f / (1.0f + std::exp(-z));
    (*sigm)[static_cast<size_t>(i)] = p;
    float y = targets[static_cast<size_t>(i)];
    // Numerically stable: max(z,0) - z*y + log(1 + exp(-|z|)).
    loss_sum += std::max(z, 0.0f) - z * y +
                std::log1p(std::exp(-std::fabs(z)));
  }
  Matrix out(1, 1);
  out.At(0, 0) = static_cast<float>(loss_sum / n);

  return MakeFusedOp(std::move(out), {logits},
                     [logits, sigm, targets = std::move(targets), n](Node& self) {
                       if (!WantsGrad(logits)) return;
                       logits->EnsureGrad();
                       float g = self.grad.At(0, 0) / static_cast<float>(n);
                       for (int i = 0; i < n; ++i) {
                         logits->grad.At(i, 0) +=
                             g * ((*sigm)[static_cast<size_t>(i)] -
                                  targets[static_cast<size_t>(i)]);
                       }
                     });
}

void LayerNormInto(const Matrix& x, const Matrix& gain, const Matrix& bias,
                   Matrix& out, float epsilon) {
  FS_CHECK_EQ(gain.rows(), 1);
  FS_CHECK_EQ(gain.cols(), x.cols());
  FS_CHECK_EQ(bias.rows(), 1);
  FS_CHECK_EQ(bias.cols(), x.cols());
  FS_CHECK_EQ(out.rows(), x.rows());
  FS_CHECK_EQ(out.cols(), x.cols());
  nn::ActiveKernels().layer_norm(x.data(), gain.Row(0), bias.Row(0), x.rows(),
                                 x.cols(), epsilon, out.data(),
                                 /*normed=*/nullptr, /*inv_std=*/nullptr);
}

void NeighborAttentionInto(const Matrix& q, const Matrix& k, const Matrix& v,
                           const NeighborLists& neighbors, Matrix& out) {
  const int t = q.rows();
  const int d = q.cols();
  FS_CHECK_EQ(k.cols(), d);
  FS_CHECK_EQ(v.cols(), d);
  FS_CHECK_EQ(k.rows(), v.rows());
  FS_CHECK_EQ(neighbors.rows(), t);
  FS_CHECK_EQ(out.rows(), t);
  FS_CHECK_EQ(out.cols(), d);
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(d));
  const nn::Kernels& kernels = nn::ActiveKernels();
  std::vector<float> weights;
  for (int i = 0; i < t; ++i) {
    std::span<const int> ns = neighbors.Row(i);
    FS_CHECK(!ns.empty()) << "empty neighbor list for row " << i;
    weights.resize(ns.size());
    kernels.attention_row(q.Row(i), k.data(), v.data(), ns.data(),
                          static_cast<int>(ns.size()), d, inv_sqrt_d,
                          weights.data(), out.Row(i));
  }
}

Matrix RowSoftmax(const Matrix& logits) {
  Matrix probs(logits.rows(), logits.cols());
  for (int r = 0; r < logits.rows(); ++r) {
    SoftmaxRowInto(logits.Row(r), logits.cols(), probs.Row(r));
  }
  return probs;
}

void SoftmaxRowInto(const float* in, int n, float* out) {
  float max_v = -1e30f;
  for (int c = 0; c < n; ++c) max_v = std::max(max_v, in[c]);
  float sum = 0;
  for (int c = 0; c < n; ++c) {
    out[c] = std::exp(in[c] - max_v);
    sum += out[c];
  }
  for (int c = 0; c < n; ++c) out[c] /= sum;
}

}  // namespace fieldswap
