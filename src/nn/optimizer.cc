#include "nn/optimizer.h"

#include <cmath>

#include "nn/kernels/backend.h"
#include "util/logging.h"

namespace fieldswap {

AdamOptimizer::AdamOptimizer(std::vector<NamedParam> params,
                             const Options& options)
    : params_(std::move(params)), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  spans_.reserve(params_.size());
  for (const NamedParam& np : params_) {
    m_.emplace_back(np.param->value.rows(), np.param->value.cols());
    v_.emplace_back(np.param->value.rows(), np.param->value.cols());
    spans_.push_back({Span{0, np.param->value.size()}});
  }
}

void AdamOptimizer::SetLiveRows(size_t index, const std::vector<int>& rows) {
  FS_CHECK_LT(index, params_.size());
  const Matrix& value = params_[index].param->value;
  const size_t cols = static_cast<size_t>(value.cols());
  std::vector<Span> spans;
  int previous = -1;
  for (int row : rows) {
    FS_CHECK_GT(row, previous) << "live rows must be ascending and distinct";
    FS_CHECK_LT(row, value.rows());
    // Adjacent rows merge into one run, so the kernel sees long spans.
    if (!spans.empty() && row == previous + 1) {
      spans.back().size += cols;
    } else {
      spans.push_back(Span{static_cast<size_t>(row) * cols, cols});
    }
    previous = row;
  }
  spans_[index] = std::move(spans);
}

double AdamOptimizer::Step() {
  ++step_;
  const float b1 = options_.beta1;
  const float b2 = options_.beta2;
  const float bias1 = 1.0f - std::pow(b1, static_cast<float>(step_));
  const float bias2 = 1.0f - std::pow(b2, static_cast<float>(step_));

  // Global norm in GlobalGradNorm's order: skipped elements are exact
  // zeros, and adding +0.0 never changes the sum.
  double sum_sq = 0;
  for (size_t p = 0; p < params_.size(); ++p) {
    params_[p].param->EnsureGrad();
    const float* g = params_[p].param->grad.data();
    for (const Span& span : spans_[p]) {
      for (size_t i = span.begin; i < span.begin + span.size; ++i) {
        sum_sq += static_cast<double>(g[i]) * static_cast<double>(g[i]);
      }
    }
  }
  const double norm = std::sqrt(sum_sq);
  const double max_norm = options_.grad_clip_norm;
  if (max_norm > 0 && norm > max_norm) {
    const float scale = static_cast<float>(max_norm / norm);
    for (size_t p = 0; p < params_.size(); ++p) {
      float* g = params_[p].param->grad.data();
      for (const Span& span : spans_[p]) {
        for (size_t i = span.begin; i < span.begin + span.size; ++i) {
          g[i] *= scale;
        }
      }
    }
  }

  const nn::Kernels& kernels = nn::ActiveKernels();
  for (size_t p = 0; p < params_.size(); ++p) {
    Var& param = params_[p].param;
    float* w = param->value.data();
    float* g = param->grad.data();
    float* m = m_[p].data();
    float* v = v_[p].data();
    for (const Span& span : spans_[p]) {
      kernels.adam_update(w + span.begin, g + span.begin, m + span.begin,
                          v + span.begin, static_cast<int>(span.size), b1, b2,
                          bias1, bias2, options_.learning_rate,
                          options_.epsilon);
    }
  }
  return norm;
}

void AdamOptimizer::ZeroGrad() {
  for (NamedParam& np : params_) {
    np.param->EnsureGrad();
    np.param->grad.Zero();
  }
}

double GlobalGradNorm(const std::vector<NamedParam>& params) {
  double sum_sq = 0;
  for (const NamedParam& np : params) {
    np.param->EnsureGrad();
    const Matrix& grad = np.param->grad;
    const float* data = grad.data();
    int64_t size = static_cast<int64_t>(grad.rows()) * grad.cols();
    for (int64_t i = 0; i < size; ++i) {
      sum_sq += static_cast<double>(data[i]) * static_cast<double>(data[i]);
    }
  }
  return std::sqrt(sum_sq);
}

double ClipGlobalGradNorm(const std::vector<NamedParam>& params,
                          double max_norm) {
  double norm = GlobalGradNorm(params);
  if (max_norm > 0 && norm > max_norm) {
    float scale = static_cast<float>(max_norm / norm);
    for (const NamedParam& np : params) {
      np.param->grad.ScaleInPlace(scale);
    }
  }
  return norm;
}

std::vector<Matrix> SnapshotParams(const std::vector<NamedParam>& params) {
  std::vector<Matrix> snapshot;
  snapshot.reserve(params.size());
  for (const NamedParam& np : params) snapshot.push_back(np.param->value);
  return snapshot;
}

void RestoreParams(const std::vector<NamedParam>& params,
                   const std::vector<Matrix>& snapshot) {
  FS_CHECK_EQ(params.size(), snapshot.size());
  for (size_t i = 0; i < params.size(); ++i) {
    FS_CHECK_EQ(params[i].param->value.rows(), snapshot[i].rows());
    FS_CHECK_EQ(params[i].param->value.cols(), snapshot[i].cols());
    params[i].param->value = snapshot[i];
  }
}

}  // namespace fieldswap
