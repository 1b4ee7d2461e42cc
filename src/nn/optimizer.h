#ifndef FIELDSWAP_NN_OPTIMIZER_H_
#define FIELDSWAP_NN_OPTIMIZER_H_

#include <vector>

#include "nn/layers.h"

namespace fieldswap {

/// Adam optimizer (Kingma & Ba) over a fixed set of named parameters.
class AdamOptimizer {
 public:
  struct Options {
    float learning_rate = 1e-3f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float epsilon = 1e-8f;
    /// Clip the *global* gradient L2 norm — over all parameters jointly —
    /// to this value (0 disables). Matches the global norm the trainer
    /// reports as fieldswap.train.grad_norm.
    float grad_clip_norm = 5.0f;
  };

  explicit AdamOptimizer(std::vector<NamedParam> params)
      : AdamOptimizer(std::move(params), Options()) {}
  AdamOptimizer(std::vector<NamedParam> params, const Options& options);

  /// Applies one update from the accumulated gradients, then zeroes them.
  /// Returns the global gradient L2 norm before clipping (what
  /// GlobalGradNorm would have reported just before the call).
  double Step();

  /// Restricts norm, clip and update of `params()[index]`, a [rows, cols]
  /// table, to `rows` (ascending, distinct). Sound only when every other
  /// row's gradient is exactly zero at every step — e.g. embedding rows no
  /// training document looks up. Such a row's moments stay 0, its update
  /// is w -= 0 and it adds +0.0 to the norm, so skipping it changes no bit.
  void SetLiveRows(size_t index, const std::vector<int>& rows);

  /// Zeroes all parameter gradients without updating.
  void ZeroGrad();

  int64_t steps_taken() const { return step_; }
  const std::vector<NamedParam>& params() const { return params_; }
  /// Adam's first and second moment estimates, one per parameter.
  const std::vector<Matrix>& first_moments() const { return m_; }
  const std::vector<Matrix>& second_moments() const { return v_; }

 private:
  /// A run of contiguous elements of one parameter that Step visits.
  struct Span {
    size_t begin = 0;
    size_t size = 0;
  };

  std::vector<NamedParam> params_;
  Options options_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  /// Per parameter, the element runs Step visits in ascending order: the
  /// whole tensor unless SetLiveRows narrowed it.
  std::vector<std::vector<Span>> spans_;
  int64_t step_ = 0;
};

/// L2 norm over every parameter gradient taken jointly (0 for params
/// Backward never reached). Grads are materialized via EnsureGrad.
double GlobalGradNorm(const std::vector<NamedParam>& params);

/// Jointly rescales every gradient so the global norm is at most
/// `max_norm` (standard global-norm clipping: all tensors share one scale
/// factor). No-op when max_norm <= 0 or the norm is already under the
/// limit. Returns the pre-clip global norm.
double ClipGlobalGradNorm(const std::vector<NamedParam>& params,
                          double max_norm);

/// Snapshot of parameter values (for best-validation checkpointing).
std::vector<Matrix> SnapshotParams(const std::vector<NamedParam>& params);

/// Restores a snapshot taken from the same parameter list.
void RestoreParams(const std::vector<NamedParam>& params,
                   const std::vector<Matrix>& snapshot);

}  // namespace fieldswap

#endif  // FIELDSWAP_NN_OPTIMIZER_H_
