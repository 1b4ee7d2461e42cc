#ifndef FIELDSWAP_NN_OPS_H_
#define FIELDSWAP_NN_OPS_H_

#include <memory>
#include <vector>

#include "nn/autodiff.h"
#include "nn/neighbors.h"

namespace fieldswap {

/// Row-wise layer normalization with learned gain/bias (each [1, d]).
/// Fused forward/backward for speed (one graph node instead of ~10).
Var LayerNorm(const Var& x, const Var& gain, const Var& bias,
              float epsilon = 1e-5f);

/// Sparse single-head scaled dot-product attention.
///
/// q, k, v are [T, d]. For each row i, attention is computed only over the
/// key/value rows listed in neighbors->Row(i) (which should include i itself
/// for self-attention). Full lists (NeighborLists::Full) degenerate to full
/// self-attention; restricted lists implement the off-axis-neighborhood
/// attention used by the extraction models. Output is [T, d]. The backward
/// closure shares `neighbors` rather than copying it.
Var NeighborAttention(const Var& q, const Var& k, const Var& v,
                      std::shared_ptr<const NeighborLists> neighbors);

/// Mean softmax cross-entropy over rows of `logits` [N, C] against integer
/// `labels` (size N). `class_weights` (size C, optional) rescales each
/// row's loss by the weight of its true class — used to counter extreme
/// O-tag imbalance in sequence labeling. Returns a [1,1] loss.
Var SoftmaxCrossEntropy(const Var& logits, std::vector<int> labels,
                        std::vector<float> class_weights = {});

/// Mean binary cross-entropy with logits. `logits` is [N, 1]; `targets`
/// holds N values in {0, 1}. Returns a [1,1] loss.
Var BinaryCrossEntropyWithLogits(const Var& logits,
                                 std::vector<float> targets);

/// Row-wise softmax probabilities of a plain matrix (inference helper; not
/// differentiable).
Matrix RowSoftmax(const Matrix& logits);

/// One row of RowSoftmax: the softmax of in[0 .. n) written to out[0 .. n),
/// with RowSoftmax's exact operation order.
void SoftmaxRowInto(const float* in, int n, float* out);

/// Graph-free fused LayerNorm forward: the exact arithmetic of
/// LayerNorm(...)->value without the tape. `out` preshaped like `x`.
void LayerNormInto(const Matrix& x, const Matrix& gain, const Matrix& bias,
                   Matrix& out, float epsilon = 1e-5f);

/// Graph-free neighbor-attention forward: the exact arithmetic of
/// NeighborAttention(...)->value without the tape. `out` preshaped [T, d].
void NeighborAttentionInto(const Matrix& q, const Matrix& k, const Matrix& v,
                           const NeighborLists& neighbors, Matrix& out);

}  // namespace fieldswap

#endif  // FIELDSWAP_NN_OPS_H_
