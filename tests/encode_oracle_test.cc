// Pins the model's cold path — EncodeDoc and the decode tail of every
// Predict* flavor — to verbatim copies of the reference implementations:
// one scored-and-partially-sorted neighbor search per token, a full
// RowSoftmax matrix, and a per-field rescan of every span. The production
// code must keep producing exactly what these references produce: the same
// feature ids, bit-identical position features, the same neighbor lists in
// the same order, the same labels, and the same decoded spans.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "model/decoder.h"
#include "model/features.h"
#include "model/sequence_model.h"
#include "model/trainer.h"
#include "ocr/line_detector.h"
#include "par/parallel.h"
#include "synth/domains.h"
#include "synth/generator.h"
#include "util/hash.h"
#include "util/strings.h"

namespace fieldswap {
namespace {

namespace oracle {

std::vector<int> NeighborIndices(const Document& doc, const BBox& center,
                                 int t, const std::vector<int>& exclude = {}) {
  std::vector<std::pair<double, int>> scored;
  scored.reserve(doc.tokens().size());
  for (int i = 0; i < doc.num_tokens(); ++i) {
    if (std::find(exclude.begin(), exclude.end(), i) != exclude.end()) {
      continue;
    }
    scored.emplace_back(OffAxisDistance(center, doc.token(i).box), i);
  }
  size_t keep = std::min(scored.size(), static_cast<size_t>(std::max(t, 0)));
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(keep),
                    scored.end());
  std::vector<int> result;
  result.reserve(keep);
  for (size_t i = 0; i < keep; ++i) result.push_back(scored[i].second);
  return result;
}

std::string TokenShape(std::string_view text) {
  std::string shape;
  char prev = '\0';
  for (char c : text) {
    char symbol;
    if (std::isupper(static_cast<unsigned char>(c))) {
      symbol = 'X';
    } else if (std::islower(static_cast<unsigned char>(c))) {
      symbol = 'x';
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      symbol = 'd';
    } else {
      symbol = c;
    }
    if (symbol != prev) {
      shape.push_back(symbol);
      prev = symbol;
    }
  }
  return shape;
}

int TextBucket(std::string_view text, int num_buckets) {
  return static_cast<int>(
      HashBucket(ToLower(text), static_cast<uint32_t>(num_buckets)));
}

int ShapeBucket(std::string_view text, int num_buckets) {
  return static_cast<int>(
      HashBucket(oracle::TokenShape(text), static_cast<uint32_t>(num_buckets)));
}

std::vector<float> PositionFeatures(const BBox& box, double page_width,
                                    double page_height) {
  return {static_cast<float>(box.CenterX() / page_width),
          static_cast<float>(box.CenterY() / page_height),
          static_cast<float>(box.Width() / page_width),
          static_cast<float>(box.Height() / page_height)};
}

/// The reference encoding, as plain nested vectors.
struct Encoded {
  int num_tokens = 0;
  std::vector<int> text_ids;
  std::vector<int> shape_ids;
  Matrix positions;
  std::vector<std::vector<int>> neighbors;
  std::vector<int> labels;
};

Encoded EncodeDoc(const SequenceModelConfig& config_,
                  const DomainSchema& schema_, const Document& doc) {
  Encoded encoded;
  const int t = std::min(doc.num_tokens(), config_.max_tokens);
  encoded.num_tokens = t;
  encoded.positions = Matrix(t, kNumPositionFeatures);
  encoded.neighbors.resize(static_cast<size_t>(t));

  for (int i = 0; i < t; ++i) {
    const Token& tok = doc.token(i);
    encoded.text_ids.push_back(
        oracle::TextBucket(tok.text, config_.text_buckets));
    encoded.shape_ids.push_back(
        oracle::ShapeBucket(tok.text, config_.shape_buckets));
    std::vector<float> pos =
        oracle::PositionFeatures(tok.box, doc.width(), doc.height());
    for (int f = 0; f < kNumPositionFeatures; ++f) {
      encoded.positions.At(i, f) = pos[static_cast<size_t>(f)];
    }
  }

  for (int i = 0; i < t; ++i) {
    std::vector<int>& ns = encoded.neighbors[static_cast<size_t>(i)];
    for (int w = -config_.sequence_window; w <= config_.sequence_window; ++w) {
      int j = i + w;
      if (j >= 0 && j < t) ns.push_back(j);
    }
    std::vector<int> spatial = oracle::NeighborIndices(
        doc, doc.token(i).box, config_.spatial_neighbors + 1);
    for (int j : spatial) {
      if (j < t && std::find(ns.begin(), ns.end(), j) == ns.end()) {
        ns.push_back(j);
      }
    }
  }

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

Matrix RowSoftmax(const Matrix& logits) {
  Matrix probs(logits.rows(), logits.cols());
  for (int r = 0; r < logits.rows(); ++r) {
    const float* in = logits.Row(r);
    float* out = probs.Row(r);
    float max_v = -1e30f;
    for (int c = 0; c < logits.cols(); ++c) max_v = std::max(max_v, in[c]);
    float sum = 0;
    for (int c = 0; c < logits.cols(); ++c) {
      out[c] = std::exp(in[c] - max_v);
      sum += out[c];
    }
    for (int c = 0; c < logits.cols(); ++c) out[c] /= sum;
  }
  return probs;
}

std::vector<int> ViterbiDecodeBio(const Matrix& logits) {
  const int t = logits.rows();
  const int c = logits.cols();
  if (t == 0) return {};

  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  Matrix score(t, c);
  std::vector<std::vector<int>> backptr(
      static_cast<size_t>(t), std::vector<int>(static_cast<size_t>(c), 0));

  for (int cls = 0; cls < c; ++cls) {
    bool legal_start = BioFieldOf(cls) < 0 || BioIsBegin(cls);
    score.At(0, cls) = legal_start ? logits.At(0, cls) : kNegInf;
  }

  for (int i = 1; i < t; ++i) {
    for (int cls = 0; cls < c; ++cls) {
      float best = kNegInf;
      int best_prev = 0;
      for (int prev = 0; prev < c; ++prev) {
        if (score.At(i - 1, prev) == kNegInf) continue;
        if (!BioTransitionAllowed(prev, cls)) continue;
        if (score.At(i - 1, prev) > best) {
          best = score.At(i - 1, prev);
          best_prev = prev;
        }
      }
      score.At(i, cls) = best == kNegInf ? kNegInf : best + logits.At(i, cls);
      backptr[static_cast<size_t>(i)][static_cast<size_t>(cls)] = best_prev;
    }
  }

  int best_last = 0;
  for (int cls = 1; cls < c; ++cls) {
    if (score.At(t - 1, cls) > score.At(t - 1, best_last)) best_last = cls;
  }
  std::vector<int> tags(static_cast<size_t>(t));
  tags[static_cast<size_t>(t - 1)] = best_last;
  for (int i = t - 1; i > 0; --i) {
    tags[static_cast<size_t>(i - 1)] =
        backptr[static_cast<size_t>(i)]
               [static_cast<size_t>(tags[static_cast<size_t>(i)])];
  }
  return tags;
}

std::vector<EntitySpan> DecodeLogits(const SequenceModelConfig& config_,
                                     const DomainSchema& schema_,
                                     const Matrix& logits) {
  Matrix probs = oracle::RowSoftmax(logits);
  const int t = logits.rows();

  std::vector<int> tags;
  if (config_.use_viterbi_decoding) {
    tags = oracle::ViterbiDecodeBio(logits);
  } else {
    tags.assign(static_cast<size_t>(t), 0);
    for (int i = 0; i < t; ++i) {
      int best = 0;
      for (int cls = 1; cls < probs.cols(); ++cls) {
        if (probs.At(i, cls) > probs.At(i, best)) best = cls;
      }
      tags[static_cast<size_t>(i)] = best;
    }
  }

  struct Scored {
    EntitySpan span;
    double confidence = 0;
  };
  std::vector<Scored> spans;
  for (int i = 0; i < t; ++i) {
    int cls = tags[static_cast<size_t>(i)];
    int field = BioFieldOf(cls);
    if (field < 0 || !BioIsBegin(cls)) continue;
    int j = i + 1;
    double conf = probs.At(i, cls);
    while (j < t && tags[static_cast<size_t>(j)] == BioInsideClass(field)) {
      conf += probs.At(j, tags[static_cast<size_t>(j)]);
      ++j;
    }
    Scored scored;
    scored.span = EntitySpan{schema_.fields()[static_cast<size_t>(field)].name,
                             i, j - i};
    scored.confidence = conf / static_cast<double>(j - i);
    spans.push_back(std::move(scored));
    i = j - 1;
  }

  std::vector<EntitySpan> result;
  for (const FieldSpec& field : schema_.fields()) {
    const Scored* best = nullptr;
    for (const Scored& s : spans) {
      if (s.span.field != field.name) continue;
      if (best == nullptr || s.confidence > best->confidence) best = &s;
    }
    if (best != nullptr) result.push_back(best->span);
  }
  return result;
}

}  // namespace oracle

/// Row i of the production neighbor lists, as a vector.
std::vector<int> NeighborRow(const EncodedDoc& encoded, int i) {
  std::span<const int> row = encoded.neighbors->Row(i);
  return std::vector<int>(row.begin(), row.end());
}

int NeighborRowCount(const EncodedDoc& encoded) {
  return encoded.neighbors->rows();
}

std::vector<uint32_t> Bits(const Matrix& m) {
  std::vector<uint32_t> bits(m.size());
  for (size_t i = 0; i < m.size(); ++i) {
    bits[i] = std::bit_cast<uint32_t>(m.data()[i]);
  }
  return bits;
}

void ExpectSameEncoding(const oracle::Encoded& expected,
                        const EncodedDoc& actual) {
  ASSERT_EQ(expected.num_tokens, actual.num_tokens);
  EXPECT_EQ(expected.text_ids, actual.text_ids);
  EXPECT_EQ(expected.shape_ids, actual.shape_ids);
  ASSERT_EQ(expected.positions.rows(), actual.positions.rows());
  ASSERT_EQ(expected.positions.cols(), actual.positions.cols());
  EXPECT_EQ(Bits(expected.positions), Bits(actual.positions));
  ASSERT_EQ(static_cast<int>(expected.neighbors.size()),
            NeighborRowCount(actual));
  for (int i = 0; i < expected.num_tokens; ++i) {
    ASSERT_EQ(expected.neighbors[static_cast<size_t>(i)],
              NeighborRow(actual, i))
        << "neighbor list of token " << i;
  }
  EXPECT_EQ(expected.labels, actual.labels);
}

/// Encodes and decodes `docs` with the production model and with the
/// references, at 1 and 4 threads, and requires identical results. Returns
/// the number of spans the references decoded, so a caller can assert the
/// decode was exercised.
size_t ExpectMatchesOracle(const SequenceLabelingModel& model,
                           const std::vector<Document>& docs,
                           const std::string& context) {
  const SequenceModelConfig& config = model.config();
  const DomainSchema& schema = model.schema();
  std::vector<oracle::Encoded> expected_encoded;
  std::vector<std::vector<EntitySpan>> expected_spans;
  std::vector<std::vector<EntitySpan>> expected_int8_spans;
  const Int8Plan plan = model.MakeInt8Plan();
  size_t decoded = 0;
  for (const Document& doc : docs) {
    expected_encoded.push_back(oracle::EncodeDoc(config, schema, doc));
    // The forward is not under test here: run it on the production
    // encoding (checked equal below) and compare only the decode.
    EncodedDoc encoded = model.EncodeDoc(doc);
    expected_spans.push_back(
        oracle::DecodeLogits(config, schema, model.InferLogits(encoded)));
    expected_int8_spans.push_back(oracle::DecodeLogits(
        config, schema, model.InferLogitsInt8(plan, encoded)));
    decoded += expected_spans.back().size();
  }

  for (int threads : {1, 4}) {
    const int saved = par::Threads();
    par::SetThreads(threads);
    std::vector<EncodedDoc> encoded = par::ParallelMap(
        docs.size(), [&](size_t i) { return model.EncodeDoc(docs[i]); });
    std::vector<std::vector<EntitySpan>> spans = par::ParallelMap(
        docs.size(), [&](size_t i) { return model.Predict(docs[i]); });
    std::vector<std::vector<EntitySpan>> graph_spans =
        par::ParallelMap(docs.size(), [&](size_t i) {
          return model.PredictEncodedGraph(encoded[i]);
        });
    std::vector<std::vector<EntitySpan>> int8_spans =
        par::ParallelMap(docs.size(), [&](size_t i) {
          return model.PredictEncodedInt8(plan, encoded[i]);
        });
    par::SetThreads(saved);
    for (size_t i = 0; i < docs.size(); ++i) {
      SCOPED_TRACE(context + " threads=" + std::to_string(threads) + " doc " +
                   docs[i].id());
      ExpectSameEncoding(expected_encoded[i], encoded[i]);
      EXPECT_EQ(expected_spans[i], spans[i]);
      EXPECT_EQ(expected_spans[i], graph_spans[i]);
      EXPECT_EQ(expected_int8_spans[i], int8_spans[i]);
    }
  }
  return decoded;
}

TEST(EncodeDecodeOracleTest, MatchesReferenceOnEveryDomain) {
  for (const char* name : {"fara", "fcc_forms", "brokerage_statements",
                           "earnings", "loan_payments", "invoices"}) {
    DomainSpec spec = SpecByName(name);
    std::vector<Document> docs = GenerateCorpus(spec, 6, 43, "oracle");
    for (bool viterbi : {false, true}) {
      SequenceModelConfig config;
      config.use_viterbi_decoding = viterbi;
      SequenceLabelingModel model(config, spec.Schema());
      const std::string context =
          std::string(name) + " viterbi=" + std::to_string(viterbi);
      EXPECT_GT(ExpectMatchesOracle(model, docs, context), 0u) << context;
    }
  }
}

TEST(EncodeDecodeOracleTest, MatchesReferenceAfterTraining) {
  // A trained model decodes real field spans, so several spans compete for
  // one field and the one-span-per-field choice is exercised on confident
  // as well as random logits.
  DomainSpec spec = SpecByName("earnings");
  std::vector<Document> train = GenerateCorpus(spec, 10, 7, "train");
  std::vector<Document> test = GenerateCorpus(spec, 6, 8, "test");
  SequenceModelConfig config;
  config.d_model = 16;
  SequenceLabelingModel model(config, spec.Schema());
  TrainOptions options;
  options.total_steps = 60;
  options.validate_every = 60;
  TrainSequenceModel(model, train, std::vector<Document>{}, options);
  for (bool viterbi : {false, true}) {
    SequenceModelConfig decode_config = config;
    decode_config.use_viterbi_decoding = viterbi;
    SequenceLabelingModel decoder(decode_config, spec.Schema());
    std::vector<NamedParam> from = model.Params();
    std::vector<NamedParam> to = decoder.Params();
    ASSERT_EQ(from.size(), to.size());
    for (size_t p = 0; p < from.size(); ++p) {
      to[p].param->value = from[p].param->value;
    }
    EXPECT_GT(ExpectMatchesOracle(decoder, test,
                                  "trained viterbi=" + std::to_string(viterbi)),
              0u);
  }
}

TEST(EncodeDecodeOracleTest, MatchesReferenceWhenTruncatedToMaxTokens) {
  // Neighbors are ranked among all N tokens and those at index >=
  // max_tokens are dropped afterwards, so a truncated document keeps fewer
  // spatial neighbors per token than spatial_neighbors + 1.
  DomainSpec spec = SpecByName("brokerage_statements");
  std::vector<Document> docs = GenerateCorpus(spec, 4, 44, "trunc");
  for (int max_tokens : {1, 7, 20, 33}) {
    SequenceModelConfig config;
    config.max_tokens = max_tokens;
    SequenceLabelingModel model(config, spec.Schema());
    for (const Document& doc : docs) ASSERT_GT(doc.num_tokens(), max_tokens);
    ExpectMatchesOracle(model, docs,
                        "max_tokens=" + std::to_string(max_tokens));
  }
}

/// A grid document with `rows` x `cols` tokens; every annotation is one
/// value token per row.
Document GridDocument(int rows, int cols) {
  Document doc("grid", "earnings", 612, 792);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const double x = 10.0 + 30.0 * c;
      const double y = 10.0 + 2.4 * r;
      std::string text = "w";
      text += std::to_string(r * cols + c);
      doc.AddToken(std::move(text), BBox{x, y, x + 25.0, y + 2.0});
    }
  }
  DetectAndAssignLines(doc);
  return doc;
}

TEST(EncodeDecodeOracleTest, MatchesReferenceOnDocumentLongerThanMaxTokens) {
  // The default max_tokens is 256; this document has 320 tokens, so tokens
  // past the cut still compete for (and can win) neighbor slots.
  DomainSpec spec = SpecByName("earnings");
  Document doc = GridDocument(20, 16);
  doc.AddAnnotation(EntitySpan{spec.Schema().fields()[0].name, 3, 2});
  doc.AddAnnotation(EntitySpan{spec.Schema().fields()[1].name, 250, 10});
  SequenceModelConfig config;
  ASSERT_GT(doc.num_tokens(), config.max_tokens);
  SequenceLabelingModel model(config, spec.Schema());
  ExpectMatchesOracle(model, {doc}, "grid 320");
}

TEST(EncodeDecodeOracleTest, MatchesReferenceOnDuplicateCentersAndZeroK) {
  // Tokens with identical boxes (and tokens sharing a row or a column) sit
  // at off-axis distance exactly 0 from each other, so the index tie-break
  // alone decides which of them are kept.
  DomainSpec spec = SpecByName("invoices");
  Document doc("dups", "invoices", 612, 792);
  for (int i = 0; i < 6; ++i) doc.AddToken("Same", BBox{100, 100, 140, 110});
  for (int i = 0; i < 5; ++i) {
    const double x = 150.0 + 40.0 * i;
    doc.AddToken("Row" + std::to_string(i), BBox{x, 100, x + 30, 110});
  }
  for (int i = 0; i < 5; ++i) {
    const double y = 120.0 + 20.0 * i;
    doc.AddToken("Col" + std::to_string(i), BBox{100, y, 140, y + 10});
  }
  for (const char* amount : {"$1.00", "$2.50", "$3.75", "$9.99"}) {
    const double y = 300.0 + 15.0 * (doc.num_tokens() - 16);
    doc.AddToken(amount, BBox{300, y, 340, y + 10});
  }
  for (int i = 0; i < 3; ++i) doc.AddToken("Again", BBox{300, 300, 340, 310});
  DetectAndAssignLines(doc);
  doc.AddAnnotation(EntitySpan{spec.Schema().fields()[0].name, 16, 2});
  Document grid = GridDocument(6, 6);
  for (int k : {0, 1, 2, 10, 40}) {
    for (bool viterbi : {false, true}) {
      SequenceModelConfig config;
      config.spatial_neighbors = k;
      config.use_viterbi_decoding = viterbi;
      SequenceLabelingModel model(config, spec.Schema());
      ExpectMatchesOracle(model, {doc, grid},
                          "spatial_neighbors=" + std::to_string(k) +
                              " viterbi=" + std::to_string(viterbi));
    }
  }
}

TEST(EncodeDecodeOracleTest, NeighborIndicesMatchesReference) {
  DomainSpec spec = SpecByName("fcc_forms");
  std::vector<Document> docs = GenerateCorpus(spec, 3, 45, "nbr");
  docs.push_back(GridDocument(5, 7));
  for (const Document& doc : docs) {
    for (int i = 0; i < doc.num_tokens(); i += 3) {
      const BBox center = doc.BoxOfRange(i, std::min(2, doc.num_tokens() - i));
      std::vector<int> exclude;
      for (int e = i; e < i + 2 && e < doc.num_tokens(); ++e) {
        exclude.push_back(e);
      }
      for (int k : {-1, 0, 1, 5, 24, doc.num_tokens() + 3}) {
        SCOPED_TRACE(doc.id() + " token " + std::to_string(i) + " k=" +
                     std::to_string(k));
        EXPECT_EQ(oracle::NeighborIndices(doc, center, k),
                  doc.NeighborIndices(center, k));
        EXPECT_EQ(oracle::NeighborIndices(doc, center, k, exclude),
                  doc.NeighborIndices(center, k, exclude));
      }
    }
  }
}

}  // namespace
}  // namespace fieldswap
