// Graph-free inference forwards of SequenceLabelingModel (ISSUE 7).
//
// Logits() builds an autodiff tape: every op allocates a Node, copies its
// input matrix, and captures closures — fine for training, pure overhead
// for serving. InferLogits() runs the same kernels in the same order on
// preallocated buffers, so its result is bit-identical to Logits()->value
// within a kernel backend while skipping all tape bookkeeping.
// InferLogitsInt8() swaps every Linear GEMM for the int8 path of an
// Int8Plan; everything else (embeddings, LayerNorm, attention, residuals)
// stays float.

#include <algorithm>

#include "model/sequence_model.h"
#include "nn/ops.h"
#include "util/logging.h"

namespace fieldswap {
namespace {

/// y = x * W + b: the arithmetic of Linear::Apply without the tape.
void LinearInto(const Linear& lin, const Matrix& x, Matrix& out) {
  MatMulInto(x, lin.weight_value(), out);
  const float* brow = lin.bias_value().Row(0);
  for (int r = 0; r < out.rows(); ++r) {
    float* row = out.Row(r);
    for (int c = 0; c < out.cols(); ++c) row[c] += brow[c];
  }
}

void LayerNormLayerInto(const LayerNormLayer& ln, const Matrix& x,
                        Matrix& out) {
  LayerNormInto(x, ln.gain_value(), ln.bias_value(), out);
}

void ReluInPlace(Matrix& m) {
  float* data = m.data();
  for (size_t i = 0; i < m.size(); ++i) data[i] = std::max(0.0f, data[i]);
}

Int8LinearPlan QuantizeLinear(const Linear& lin) {
  Int8LinearPlan plan;
  plan.weight_t = QuantizeTransposed(lin.weight_value());
  plan.bias = lin.bias_value();
  return plan;
}

void Int8LinearInto(const Int8LinearPlan& lin, const Matrix& x, Matrix& out) {
  QuantizedLinearInto(x, lin.weight_t, lin.bias, out);
}

}  // namespace

Matrix SequenceLabelingModel::InferLogits(const EncodedDoc& encoded) const {
  const int t = encoded.num_tokens;
  const int d = config_.d_model;
  FS_CHECK_GT(t, 0);

  // inputs = text_emb + shape_emb + pos_proj(positions), in the exact
  // association Logits() uses: (text + shape) + pos.
  Matrix x(t, d);
  const Matrix& text_table = text_emb_.table_value();
  const Matrix& shape_table = shape_emb_.table_value();
  for (int i = 0; i < t; ++i) {
    const float* trow = text_table.Row(encoded.text_ids[static_cast<size_t>(i)]);
    const float* srow =
        shape_table.Row(encoded.shape_ids[static_cast<size_t>(i)]);
    float* row = x.Row(i);
    for (int c = 0; c < d; ++c) row[c] = trow[c] + srow[c];
  }
  Matrix pos(t, d);
  LinearInto(pos_proj_, encoded.positions, pos);
  x.AddInPlace(pos);

  Matrix normed(t, d), q(t, d), k(t, d), v(t, d), attn(t, d), proj(t, d);
  for (const TransformerBlock& block : blocks_) {
    // x += wo(Attn(LN(x)))
    LayerNormLayerInto(block.ln_attn(), x, normed);
    LinearInto(block.wq(), normed, q);
    LinearInto(block.wk(), normed, k);
    LinearInto(block.wv(), normed, v);
    NeighborAttentionInto(q, k, v, *encoded.neighbors, attn);
    LinearInto(block.wo(), attn, proj);
    x.AddInPlace(proj);
    // x += ff2(relu(ff1(LN(x))))
    LayerNormLayerInto(block.ln_ffn(), x, normed);
    Matrix hidden(t, block.ff1().weight_value().cols());
    LinearInto(block.ff1(), normed, hidden);
    ReluInPlace(hidden);
    LinearInto(block.ff2(), hidden, proj);
    x.AddInPlace(proj);
  }

  LayerNormLayerInto(ln_out_, x, normed);
  Matrix logits(t, num_classes_);
  LinearInto(head_, normed, logits);
  return logits;
}

Int8Plan SequenceLabelingModel::MakeInt8Plan() const {
  Int8Plan plan;
  plan.pos_proj = QuantizeLinear(pos_proj_);
  for (const TransformerBlock& block : blocks_) {
    Int8BlockPlan b;
    b.wq = QuantizeLinear(block.wq());
    b.wk = QuantizeLinear(block.wk());
    b.wv = QuantizeLinear(block.wv());
    b.wo = QuantizeLinear(block.wo());
    b.ff1 = QuantizeLinear(block.ff1());
    b.ff2 = QuantizeLinear(block.ff2());
    plan.blocks.push_back(std::move(b));
  }
  plan.head = QuantizeLinear(head_);
  return plan;
}

Matrix SequenceLabelingModel::InferLogitsInt8(const Int8Plan& plan,
                                              const EncodedDoc& encoded) const {
  const int t = encoded.num_tokens;
  const int d = config_.d_model;
  FS_CHECK_GT(t, 0);
  FS_CHECK_EQ(plan.blocks.size(), blocks_.size());

  Matrix x(t, d);
  const Matrix& text_table = text_emb_.table_value();
  const Matrix& shape_table = shape_emb_.table_value();
  for (int i = 0; i < t; ++i) {
    const float* trow = text_table.Row(encoded.text_ids[static_cast<size_t>(i)]);
    const float* srow =
        shape_table.Row(encoded.shape_ids[static_cast<size_t>(i)]);
    float* row = x.Row(i);
    for (int c = 0; c < d; ++c) row[c] = trow[c] + srow[c];
  }
  Matrix pos(t, d);
  Int8LinearInto(plan.pos_proj, encoded.positions, pos);
  x.AddInPlace(pos);

  Matrix normed(t, d), q(t, d), k(t, d), v(t, d), attn(t, d), proj(t, d);
  for (size_t l = 0; l < blocks_.size(); ++l) {
    const TransformerBlock& block = blocks_[l];
    const Int8BlockPlan& bp = plan.blocks[l];
    LayerNormLayerInto(block.ln_attn(), x, normed);
    Int8LinearInto(bp.wq, normed, q);
    Int8LinearInto(bp.wk, normed, k);
    Int8LinearInto(bp.wv, normed, v);
    NeighborAttentionInto(q, k, v, *encoded.neighbors, attn);
    Int8LinearInto(bp.wo, attn, proj);
    x.AddInPlace(proj);
    LayerNormLayerInto(block.ln_ffn(), x, normed);
    Matrix hidden(t, bp.ff1.weight_t.rows);
    Int8LinearInto(bp.ff1, normed, hidden);
    ReluInPlace(hidden);
    Int8LinearInto(bp.ff2, hidden, proj);
    x.AddInPlace(proj);
  }

  LayerNormLayerInto(ln_out_, x, normed);
  Matrix logits(t, num_classes_);
  Int8LinearInto(plan.head, normed, logits);
  return logits;
}

}  // namespace fieldswap
