#include "model/candidate_model.h"

#include <algorithm>
#include <array>

#include "model/features.h"
#include "nn/ops.h"
#include "util/logging.h"

namespace fieldswap {

CandidateScoringModel::CandidateScoringModel(
    const CandidateModelConfig& config, std::vector<std::string> fields)
    : config_(config), fields_(std::move(fields)) {
  Rng rng(config_.seed);
  const int d = config_.d_model;
  text_emb_ = Embedding(config_.text_buckets, d, rng, "cand.text_emb");
  shape_emb_ = Embedding(config_.shape_buckets, d, rng, "cand.shape_emb");
  rel_pos_proj_ = Linear(kNumRelativeFeatures, d, rng, "cand.rel_pos");
  wq_ = Linear(d, d, rng, "cand.wq");
  wk_ = Linear(d, d, rng, "cand.wk");
  wv_ = Linear(d, d, rng, "cand.wv");
  enc_ = Linear(2 * d, d, rng, "cand.enc");
  cand_pos_proj_ = Linear(kNumPositionFeatures, d, rng, "cand.cand_pos");
  combine_ = Linear(2 * d, d, rng, "cand.combine");
  field_emb_ = Embedding(std::max<int>(1, static_cast<int>(fields_.size())),
                         d, rng, "cand.field_emb");
}

CandidateScoringModel::EncodeGraph CandidateScoringModel::BuildEncodeGraph(
    const Document& doc, const Candidate& candidate) const {
  BBox cand_box = doc.BoxOfRange(candidate.first_token, candidate.num_tokens);

  // Exclude the candidate's own tokens from its neighborhood.
  std::vector<int> exclude;
  for (int i = candidate.first_token; i < candidate.end_token(); ++i) {
    exclude.push_back(i);
  }
  std::vector<int> neighbors =
      doc.NeighborIndices(cand_box, config_.num_neighbors, exclude);
  FS_CHECK(!neighbors.empty()) << "candidate has no neighbors";

  const int t = static_cast<int>(neighbors.size());
  std::vector<int> text_ids, shape_ids;
  Matrix rel(t, kNumRelativeFeatures);
  for (int i = 0; i < t; ++i) {
    const Token& tok = doc.token(neighbors[static_cast<size_t>(i)]);
    text_ids.push_back(TextBucket(tok.text, config_.text_buckets));
    shape_ids.push_back(ShapeBucket(tok.text, config_.shape_buckets));
    const std::array<float, kNumRelativeFeatures> feats =
        RelativeFeatures(cand_box, tok.box, doc.width(), doc.height());
    std::copy(feats.begin(), feats.end(), rel.Row(i));
  }

  Var inputs = Add(Add(text_emb_.Lookup(text_ids), shape_emb_.Lookup(shape_ids)),
                   rel_pos_proj_.Apply(Constant(std::move(rel))));
  Var attn = NeighborAttention(wq_.Apply(inputs), wk_.Apply(inputs),
                               wv_.Apply(inputs), NeighborLists::Full(t));
  // Per-neighbor encodings: ReLU of [input | attention context].
  Var encoded = Relu(enc_.Apply(ConcatCols(inputs, attn)));

  EncodeGraph graph;
  graph.neighbor_ids = std::move(neighbors);
  graph.neighbor_encodings = encoded;
  graph.neighborhood = MaxPoolRows(encoded);
  return graph;
}

CandidateEncoding CandidateScoringModel::Encode(
    const Document& doc, const Candidate& candidate) const {
  EncodeGraph graph = BuildEncodeGraph(doc, candidate);
  CandidateEncoding encoding;
  encoding.neighbor_ids = graph.neighbor_ids;
  encoding.neighbor_encodings = graph.neighbor_encodings->value;
  encoding.neighborhood = graph.neighborhood->value;
  return encoding;
}

Var CandidateScoringModel::ScoreForTraining(const Document& doc,
                                            const Candidate& candidate,
                                            int field_index) {
  EncodeGraph graph = BuildEncodeGraph(doc, candidate);

  BBox cand_box = doc.BoxOfRange(candidate.first_token, candidate.num_tokens);
  const std::array<float, kNumPositionFeatures> pos =
      PositionFeatures(cand_box, doc.width(), doc.height());
  Var cand_pos = cand_pos_proj_.Apply(Constant(Matrix::FromValues(
      1, kNumPositionFeatures, std::vector<float>(pos.begin(), pos.end()))));

  Var features =
      Relu(combine_.Apply(ConcatCols(graph.neighborhood, cand_pos)));
  Var field = field_emb_.Lookup({field_index});
  // Dot product of the two [1, d] rows -> [1, 1] logit.
  return MatMul(Mul(features, field),
                Constant(Matrix::Full(config_.d_model, 1, 1.0f)));
}

double CandidateScoringModel::Pretrain(const std::vector<Document>& corpus,
                                       const DomainSchema& schema,
                                       const CandidateTrainOptions& options) {
  std::string options_error = options.Validate();
  FS_CHECK(options_error.empty()) << options_error;
  std::vector<NamedParam> params = Params();
  AdamOptimizer::Options opt_options;
  opt_options.learning_rate = options.learning_rate;
  AdamOptimizer optimizer(params, opt_options);
  Rng rng(options.seed);

  // Assemble (doc, candidate, field_index, label) examples.
  struct Example {
    const Document* doc;
    Candidate candidate;
    int field_index;
    float label;
  };
  std::vector<Example> examples;
  for (const Document& doc : corpus) {
    std::vector<Candidate> negatives_pool = GenerateCandidates(doc);
    for (int f = 0; f < static_cast<int>(fields_.size()); ++f) {
      FieldType type = schema.TypeOf(fields_[static_cast<size_t>(f)]);
      std::vector<EntitySpan> gold =
          doc.AnnotationsFor(fields_[static_cast<size_t>(f)]);
      if (gold.empty()) continue;
      for (const EntitySpan& span : gold) {
        examples.push_back(
            Example{&doc, CandidateFromSpan(span, type), f, 1.0f});
      }
      // Same-type negatives that do not overlap a gold span of this field.
      std::vector<Candidate> negatives;
      for (const Candidate& c : negatives_pool) {
        if (c.type != type) continue;
        bool overlaps = false;
        for (const EntitySpan& span : gold) {
          if (c.first_token < span.end_token() &&
              span.first_token < c.end_token()) {
            overlaps = true;
          }
        }
        if (!overlaps) negatives.push_back(c);
      }
      rng.Shuffle(negatives);
      int keep = std::min<int>(static_cast<int>(negatives.size()),
                               options.negatives_per_positive *
                                   static_cast<int>(gold.size()));
      for (int i = 0; i < keep; ++i) {
        examples.push_back(Example{&doc, negatives[static_cast<size_t>(i)], f, 0.0f});
      }
    }
  }
  FS_CHECK(!examples.empty()) << "no pre-training examples";

  double last_epoch_loss = 0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(examples);
    double loss_sum = 0;
    for (const Example& ex : examples) {
      Var logit = ScoreForTraining(*ex.doc, ex.candidate, ex.field_index);
      Var loss = BinaryCrossEntropyWithLogits(logit, {ex.label});
      loss_sum += loss->value.At(0, 0);
      Backward(loss);
      optimizer.Step();
    }
    last_epoch_loss = loss_sum / static_cast<double>(examples.size());
  }
  return last_epoch_loss;
}

std::vector<NamedParam> CandidateScoringModel::Params() const {
  std::vector<NamedParam> params;
  text_emb_.CollectParams(params);
  shape_emb_.CollectParams(params);
  rel_pos_proj_.CollectParams(params);
  wq_.CollectParams(params);
  wk_.CollectParams(params);
  wv_.CollectParams(params);
  enc_.CollectParams(params);
  cand_pos_proj_.CollectParams(params);
  combine_.CollectParams(params);
  field_emb_.CollectParams(params);
  return params;
}

}  // namespace fieldswap
