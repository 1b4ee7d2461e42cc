#include "model/sequence_model.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <span>

#include "model/decoder.h"
#include "model/features.h"
#include "nn/ops.h"
#include "util/logging.h"

namespace fieldswap {

int BioNumClasses(int num_fields) { return 2 * num_fields + 1; }
int BioBeginClass(int field_index) { return 2 * field_index + 1; }
int BioInsideClass(int field_index) { return 2 * field_index + 2; }
int BioFieldOf(int class_id) {
  return class_id <= 0 ? -1 : (class_id - 1) / 2;
}
bool BioIsBegin(int class_id) { return class_id >= 1 && class_id % 2 == 1; }

SequenceLabelingModel::SequenceLabelingModel(const SequenceModelConfig& config,
                                             DomainSchema schema)
    : config_(config), schema_(std::move(schema)) {
  num_classes_ = BioNumClasses(static_cast<int>(schema_.num_fields()));
  class_weights_.assign(static_cast<size_t>(num_classes_), 1.0f);
  class_weights_[0] = config_.outside_weight;

  Rng rng(config_.seed);
  const int d = config_.d_model;
  text_emb_ = Embedding(config_.text_buckets, d, rng, "seq.text_emb");
  shape_emb_ = Embedding(config_.shape_buckets, d, rng, "seq.shape_emb");
  pos_proj_ = Linear(kNumPositionFeatures, d, rng, "seq.pos_proj");
  for (int l = 0; l < config_.num_layers; ++l) {
    blocks_.emplace_back(d, rng, "seq.block" + std::to_string(l));
  }
  ln_out_ = LayerNormLayer(d, "seq.ln_out");
  head_ = Linear(d, num_classes_, rng, "seq.head");
}

EncodedDoc SequenceLabelingModel::EncodeDoc(const Document& doc) const {
  EncodedDoc encoded;
  const int n = doc.num_tokens();
  const int t = std::min(n, config_.max_tokens);
  encoded.num_tokens = t;
  encoded.positions = Matrix(t, kNumPositionFeatures);
  encoded.text_ids.reserve(static_cast<size_t>(t));
  encoded.shape_ids.reserve(static_cast<size_t>(t));

  for (int i = 0; i < t; ++i) {
    const Token& tok = doc.token(i);
    encoded.text_ids.push_back(TextBucket(tok.text, config_.text_buckets));
    encoded.shape_ids.push_back(ShapeBucket(tok.text, config_.shape_buckets));
    const std::array<float, kNumPositionFeatures> pos =
        PositionFeatures(tok.box, doc.width(), doc.height());
    std::copy(pos.begin(), pos.end(), encoded.positions.Row(i));
  }

  // Attention pattern: self + reading-order window + off-axis-nearest
  // spatial neighbors (captures both the row label to the left and the
  // column header above, which jointly disambiguate table cells). One
  // scratch buffer holds every token's center (computed once) and the
  // top-k state; see the EncodeDoc contract in the header.
  const int window = config_.sequence_window;
  const int k = std::min(n, std::max(config_.spatial_neighbors + 1, 0));
  std::vector<double> scratch(2 * static_cast<size_t>(n) +
                              static_cast<size_t>(k));
  const std::span<double> xs(scratch.data(), static_cast<size_t>(n));
  const std::span<double> ys(scratch.data() + n, static_cast<size_t>(n));
  double* distances = scratch.data() + 2 * static_cast<size_t>(n);
  for (int j = 0; j < n; ++j) {
    xs[static_cast<size_t>(j)] = doc.token(j).box.CenterX();
    ys[static_cast<size_t>(j)] = doc.token(j).box.CenterY();
  }
  auto lists = std::make_shared<NeighborLists>();
  lists->offsets.reserve(static_cast<size_t>(t) + 1);
  lists->indices.reserve(static_cast<size_t>(t) *
                         static_cast<size_t>(std::max(2 * window + 1, 0) + k));
  lists->offsets.push_back(0);
  // The spatial picks go straight into `indices` past the window, then are
  // compacted in place (the write cursor never passes the read cursor).
  for (int i = 0; i < t; ++i) {
    for (int j = std::max(i - window, 0); j <= i + window && j < t; ++j) {
      lists->indices.push_back(j);
    }
    const size_t spatial_begin = lists->indices.size();
    lists->indices.resize(spatial_begin + static_cast<size_t>(k));
    int* picked = lists->indices.data() + spatial_begin;
    const int found = NearestOffAxis(
        xs[static_cast<size_t>(i)], ys[static_cast<size_t>(i)], xs, ys, {}, k,
        distances, picked);
    int kept = 0;
    for (int p = 0; p < found; ++p) {
      const int j = picked[p];
      const bool in_window = j >= i - window && j <= i + window;
      if (j < t && !in_window) picked[kept++] = j;
    }
    lists->indices.resize(spatial_begin + static_cast<size_t>(kept));
    lists->offsets.push_back(static_cast<int>(lists->indices.size()));
  }
  encoded.neighbors = std::move(lists);

  // BIO labels from annotations (truncated spans are labeled up to t).
  encoded.labels.assign(static_cast<size_t>(t), 0);
  for (const EntitySpan& span : doc.annotations()) {
    int field = schema_.IndexOf(span.field);
    if (field < 0) continue;
    for (int i = span.first_token; i < span.end_token() && i < t; ++i) {
      encoded.labels[static_cast<size_t>(i)] =
          i == span.first_token ? BioBeginClass(field) : BioInsideClass(field);
    }
  }
  return encoded;
}

Var SequenceLabelingModel::Logits(const EncodedDoc& encoded) const {
  Var inputs = Add(Add(text_emb_.Lookup(encoded.text_ids),
                       shape_emb_.Lookup(encoded.shape_ids)),
                   pos_proj_.Apply(Constant(encoded.positions)));
  Var hidden = inputs;
  for (const TransformerBlock& block : blocks_) {
    hidden = block.Apply(hidden, encoded.neighbors);
  }
  return head_.Apply(ln_out_.Apply(hidden));
}

Var SequenceLabelingModel::Loss(const EncodedDoc& encoded) const {
  FS_CHECK_EQ(static_cast<int>(encoded.labels.size()), encoded.num_tokens);
  return SoftmaxCrossEntropy(Logits(encoded), encoded.labels,
                             class_weights_);
}

std::vector<EntitySpan> SequenceLabelingModel::Predict(
    const Document& doc) const {
  return PredictEncoded(EncodeDoc(doc));
}

std::vector<EntitySpan> SequenceLabelingModel::PredictEncoded(
    const EncodedDoc& encoded) const {
  // Graph-free forward: bit-identical to Logits()->value within a kernel
  // backend, without the tape allocation (the serve hot path).
  return DecodeLogits(InferLogits(encoded));
}

std::vector<EntitySpan> SequenceLabelingModel::PredictEncodedGraph(
    const EncodedDoc& encoded) const {
  return DecodeLogits(Logits(encoded)->value);
}

std::vector<EntitySpan> SequenceLabelingModel::PredictEncodedInt8(
    const Int8Plan& plan, const EncodedDoc& encoded) const {
  return DecodeLogits(InferLogitsInt8(plan, encoded));
}

std::vector<EntitySpan> SequenceLabelingModel::DecodeLogits(
    const Matrix& logits) const {
  const int t = logits.rows();
  const int c = logits.cols();

  // Tags from greedy per-token argmax over each softmax row (the paper's
  // simple readout) or from Viterbi over the logits; either way keep the
  // softmax probability of each token's tag, which is all span confidence
  // needs.
  std::vector<int> tags = config_.use_viterbi_decoding
                              ? ViterbiDecodeBio(logits)
                              : std::vector<int>(static_cast<size_t>(t), 0);
  std::vector<float> tag_probs(static_cast<size_t>(t));
  std::vector<float> probs(static_cast<size_t>(c));
  for (int i = 0; i < t; ++i) {
    SoftmaxRowInto(logits.Row(i), c, probs.data());
    int& tag = tags[static_cast<size_t>(i)];
    if (!config_.use_viterbi_decoding) {
      for (int cls = 1; cls < c; ++cls) {
        if (probs[static_cast<size_t>(cls)] > probs[static_cast<size_t>(tag)]) {
          tag = cls;
        }
      }
    }
    tag_probs[static_cast<size_t>(i)] = probs[static_cast<size_t>(tag)];
  }

  // Decode spans: a B opens a span; following I of the same field extends.
  // Schema constraint at inference: one span per field, the most confident
  // (the first of equals, in token order).
  struct Best {
    int first = -1;
    int count = 0;
    double confidence = 0;
  };
  std::vector<Best> best(schema_.num_fields());
  for (int i = 0; i < t; ++i) {
    int cls = tags[static_cast<size_t>(i)];
    int field = BioFieldOf(cls);
    if (field < 0 || !BioIsBegin(cls)) continue;
    int j = i + 1;
    double conf = tag_probs[static_cast<size_t>(i)];
    while (j < t && tags[static_cast<size_t>(j)] == BioInsideClass(field)) {
      conf += tag_probs[static_cast<size_t>(j)];
      ++j;
    }
    const double confidence = conf / static_cast<double>(j - i);
    Best& b = best[static_cast<size_t>(field)];
    if (b.first < 0 || confidence > b.confidence) b = Best{i, j - i, confidence};
    i = j - 1;
  }

  std::vector<EntitySpan> result;
  result.reserve(static_cast<size_t>(std::count_if(
      best.begin(), best.end(), [](const Best& b) { return b.first >= 0; })));
  for (size_t f = 0; f < best.size(); ++f) {
    if (best[f].first < 0) continue;
    result.push_back(
        EntitySpan{schema_.fields()[f].name, best[f].first, best[f].count});
  }
  return result;
}

std::vector<NamedParam> SequenceLabelingModel::Params() const {
  std::vector<NamedParam> params;
  text_emb_.CollectParams(params);
  shape_emb_.CollectParams(params);
  pos_proj_.CollectParams(params);
  for (const TransformerBlock& block : blocks_) block.CollectParams(params);
  ln_out_.CollectParams(params);
  head_.CollectParams(params);
  return params;
}

}  // namespace fieldswap
