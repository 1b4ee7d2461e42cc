#ifndef FIELDSWAP_NN_LAYERS_H_
#define FIELDSWAP_NN_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/autodiff.h"
#include "nn/neighbors.h"
#include "nn/ops.h"
#include "util/rng.h"

namespace fieldswap {

/// A named trainable parameter, for optimizer registration and
/// checkpointing.
struct NamedParam {
  std::string name;
  Var param;
};

/// Fully connected layer: y = x * W + b.
class Linear {
 public:
  Linear() = default;
  Linear(int in_dim, int out_dim, Rng& rng, std::string name);

  Var Apply(const Var& x) const;

  /// Raw parameter values, for graph-free inference and quantized-plan
  /// construction (read-only; the tape never sees these reads).
  const Matrix& weight_value() const { return weight_->value; }
  const Matrix& bias_value() const { return bias_->value; }

  void CollectParams(std::vector<NamedParam>& out) const;

 private:
  std::string name_;
  Var weight_;  // [in, out]
  Var bias_;    // [1, out]
};

/// Embedding table with row lookup.
class Embedding {
 public:
  Embedding() = default;
  Embedding(int vocab, int dim, Rng& rng, std::string name);

  Var Lookup(std::vector<int> ids) const;
  int vocab() const { return table_->value.rows(); }
  int dim() const { return table_->value.cols(); }
  const Matrix& table_value() const { return table_->value; }

  void CollectParams(std::vector<NamedParam>& out) const;

 private:
  std::string name_;
  Var table_;  // [vocab, dim]
};

/// Layer normalization with learned gain and bias.
class LayerNormLayer {
 public:
  LayerNormLayer() = default;
  LayerNormLayer(int dim, std::string name);

  Var Apply(const Var& x) const { return LayerNorm(x, gain_, bias_); }

  const Matrix& gain_value() const { return gain_->value; }
  const Matrix& bias_value() const { return bias_->value; }

  void CollectParams(std::vector<NamedParam>& out) const;

 private:
  std::string name_;
  Var gain_;  // [1, dim]
  Var bias_;  // [1, dim]
};

/// Pre-LN transformer encoder block with sparse (neighbor-restricted)
/// single-head self-attention and a 2x feed-forward:
///   x += Attn(LN(x));  x += FFN(LN(x)).
class TransformerBlock {
 public:
  TransformerBlock() = default;
  TransformerBlock(int dim, Rng& rng, std::string name);

  /// neighbors->Row(i) lists the rows token i may attend to (include i
  /// itself).
  Var Apply(const Var& x,
            const std::shared_ptr<const NeighborLists>& neighbors) const;

  /// Sub-layer access for graph-free inference (model/inference.cc walks
  /// the same structure Apply() builds on the tape).
  const LayerNormLayer& ln_attn() const { return ln_attn_; }
  const Linear& wq() const { return wq_; }
  const Linear& wk() const { return wk_; }
  const Linear& wv() const { return wv_; }
  const Linear& wo() const { return wo_; }
  const LayerNormLayer& ln_ffn() const { return ln_ffn_; }
  const Linear& ff1() const { return ff1_; }
  const Linear& ff2() const { return ff2_; }

  void CollectParams(std::vector<NamedParam>& out) const;

 private:
  std::string name_;
  LayerNormLayer ln_attn_;
  Linear wq_, wk_, wv_, wo_;
  LayerNormLayer ln_ffn_;
  Linear ff1_, ff2_;
};

}  // namespace fieldswap

#endif  // FIELDSWAP_NN_LAYERS_H_
