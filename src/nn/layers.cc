#include "nn/layers.h"

namespace fieldswap {

Linear::Linear(int in_dim, int out_dim, Rng& rng, std::string name)
    : name_(std::move(name)),
      weight_(Parameter(Matrix::Xavier(in_dim, out_dim, rng))),
      bias_(Parameter(Matrix::Zeros(1, out_dim))) {}

Var Linear::Apply(const Var& x) const {
  return AddRowBroadcast(MatMul(x, weight_), bias_);
}

void Linear::CollectParams(std::vector<NamedParam>& out) const {
  out.push_back({name_ + ".weight", weight_});
  out.push_back({name_ + ".bias", bias_});
}

Embedding::Embedding(int vocab, int dim, Rng& rng, std::string name)
    : name_(std::move(name)),
      table_(Parameter(Matrix::Gaussian(vocab, dim, 0.1f, rng))) {}

Var Embedding::Lookup(std::vector<int> ids) const {
  return GatherRows(table_, std::move(ids));
}

void Embedding::CollectParams(std::vector<NamedParam>& out) const {
  out.push_back({name_ + ".table", table_});
}

LayerNormLayer::LayerNormLayer(int dim, std::string name)
    : name_(std::move(name)),
      gain_(Parameter(Matrix::Full(1, dim, 1.0f))),
      bias_(Parameter(Matrix::Zeros(1, dim))) {}

void LayerNormLayer::CollectParams(std::vector<NamedParam>& out) const {
  out.push_back({name_ + ".gain", gain_});
  out.push_back({name_ + ".bias", bias_});
}

TransformerBlock::TransformerBlock(int dim, Rng& rng, std::string name)
    : name_(std::move(name)),
      ln_attn_(dim, name_ + ".ln_attn"),
      wq_(dim, dim, rng, name_ + ".wq"),
      wk_(dim, dim, rng, name_ + ".wk"),
      wv_(dim, dim, rng, name_ + ".wv"),
      wo_(dim, dim, rng, name_ + ".wo"),
      ln_ffn_(dim, name_ + ".ln_ffn"),
      ff1_(dim, 2 * dim, rng, name_ + ".ff1"),
      ff2_(2 * dim, dim, rng, name_ + ".ff2") {}

Var TransformerBlock::Apply(
    const Var& x, const std::shared_ptr<const NeighborLists>& neighbors) const {
  Var normed = ln_attn_.Apply(x);
  Var attn = NeighborAttention(wq_.Apply(normed), wk_.Apply(normed),
                               wv_.Apply(normed), neighbors);
  Var with_attn = Add(x, wo_.Apply(attn));
  Var ff = ff2_.Apply(Relu(ff1_.Apply(ln_ffn_.Apply(with_attn))));
  return Add(with_attn, ff);
}

void TransformerBlock::CollectParams(std::vector<NamedParam>& out) const {
  ln_attn_.CollectParams(out);
  wq_.CollectParams(out);
  wk_.CollectParams(out);
  wv_.CollectParams(out);
  wo_.CollectParams(out);
  ln_ffn_.CollectParams(out);
  ff1_.CollectParams(out);
  ff2_.CollectParams(out);
}

}  // namespace fieldswap
