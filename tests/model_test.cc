#include <gtest/gtest.h>

#include <array>
#include <span>

#include "model/annotators.h"
#include "model/candidate_model.h"
#include "model/options.h"
#include "model/features.h"
#include "model/sequence_model.h"
#include "model/trainer.h"
#include "ocr/line_detector.h"
#include "synth/domains.h"
#include "synth/generator.h"

namespace fieldswap {
namespace {

// ---- Features -------------------------------------------------------------

TEST(FeaturesTest, TokenShapeCollapsesRuns) {
  EXPECT_EQ(TokenShape("Overtime"), "Xx");
  EXPECT_EQ(TokenShape("$3,308.62"), "$d,d.d");
  EXPECT_EQ(TokenShape("PTO"), "X");
  EXPECT_EQ(TokenShape("01/15/2024"), "d/d/d");
  EXPECT_EQ(TokenShape(""), "");
}

TEST(FeaturesTest, BucketsStableAndBounded) {
  EXPECT_EQ(TextBucket("Overtime", 256), TextBucket("overtime", 256))
      << "text bucket is case-insensitive";
  EXPECT_LT(TextBucket("anything", 64), 64);
  EXPECT_EQ(ShapeBucket("Bonus", 64), ShapeBucket("Wages", 64))
      << "same shape Xx";
}

TEST(FeaturesTest, PositionFeaturesNormalized) {
  std::array<float, kNumPositionFeatures> feats =
      PositionFeatures(BBox{306, 396, 326, 416}, 612, 792);
  ASSERT_EQ(feats.size(), static_cast<size_t>(kNumPositionFeatures));
  EXPECT_NEAR(feats[0], 0.516, 1e-2);
  EXPECT_NEAR(feats[1], 0.513, 1e-2);
}

TEST(FeaturesTest, RelativeFeaturesSigns) {
  BBox anchor{100, 100, 120, 110};
  BBox right_of{200, 100, 220, 110};
  std::array<float, kNumRelativeFeatures> feats =
      RelativeFeatures(anchor, right_of, 612, 792);
  ASSERT_EQ(feats.size(), static_cast<size_t>(kNumRelativeFeatures));
  EXPECT_GT(feats[0], 0) << "dx positive for rightward neighbor";
  EXPECT_NEAR(feats[1], 0, 1e-6) << "dy zero for same row";
  EXPECT_NEAR(feats[4], 0, 1e-6) << "off-axis zero for same row";
  EXPECT_EQ(feats[5], 1.0f) << "same y-band flag";
}

// ---- Annotators -----------------------------------------------------------

TEST(AnnotatorsTest, MoneyToken) {
  EXPECT_TRUE(IsMoneyToken("$3,308.62"));
  EXPECT_TRUE(IsMoneyToken("1234.56"));
  EXPECT_TRUE(IsMoneyToken("($42.00)"));
  EXPECT_FALSE(IsMoneyToken("3308"));
  EXPECT_FALSE(IsMoneyToken("$3,308.621"));
  EXPECT_FALSE(IsMoneyToken("abc.de"));
  EXPECT_FALSE(IsMoneyToken(""));
}

TEST(AnnotatorsTest, DateToken) {
  EXPECT_TRUE(IsDateToken("01/15/2024"));
  EXPECT_TRUE(IsDateToken("2024-01-15"));
  EXPECT_FALSE(IsDateToken("1/2"));
  EXPECT_FALSE(IsDateToken("01-15"));
  EXPECT_FALSE(IsDateToken("Overtime"));
}

TEST(AnnotatorsTest, NumberAndZip) {
  EXPECT_TRUE(IsNumberToken("12345"));
  EXPECT_FALSE(IsNumberToken("12"));
  EXPECT_FALSE(IsNumberToken("12a45"));
  EXPECT_TRUE(IsZipToken("94025"));
  EXPECT_FALSE(IsZipToken("9402"));
}

Document AnnotatorDoc() {
  Document doc("a", "test", 612, 792);
  doc.AddToken("Invoice", BBox{0, 0, 40, 10});
  doc.AddToken("Date", BBox{45, 0, 70, 10});
  doc.AddToken("01/15/2024", BBox{80, 0, 140, 10});
  doc.AddToken("Total", BBox{0, 20, 30, 30});
  doc.AddToken("$42.00", BBox{40, 20, 80, 30});
  doc.AddToken("Jan", BBox{0, 40, 20, 50});
  doc.AddToken("3,", BBox{24, 40, 34, 50});
  doc.AddToken("2023", BBox{38, 40, 60, 50});
  doc.AddToken("4521", BBox{0, 60, 25, 70});
  doc.AddToken("Maple", BBox{30, 60, 60, 70});
  doc.AddToken("St,", BBox{64, 60, 80, 70});
  doc.AddToken("CA", BBox{84, 60, 96, 70});
  doc.AddToken("94025", BBox{100, 60, 130, 70});
  DetectAndAssignLines(doc);
  return doc;
}

TEST(AnnotatorsTest, GenerateCandidatesFindsAllTypes) {
  Document doc = AnnotatorDoc();
  auto candidates = GenerateCandidates(doc);
  auto count = [&](FieldType type) {
    int n = 0;
    for (const Candidate& c : candidates) {
      if (c.type == type) ++n;
    }
    return n;
  };
  EXPECT_EQ(count(FieldType::kDate), 2);     // slashed + month-name
  EXPECT_EQ(count(FieldType::kMoney), 1);
  EXPECT_EQ(count(FieldType::kAddress), 1);  // 4521 Maple St, CA 94025
  EXPECT_GE(count(FieldType::kString), 2);   // "Invoice Date", "Total", ...
}

TEST(AnnotatorsTest, MonthNameDateSpansThreeTokens) {
  Document doc = AnnotatorDoc();
  auto dates = GenerateCandidates(doc, FieldType::kDate);
  bool found = false;
  for (const Candidate& c : dates) {
    if (c.num_tokens == 3) {
      EXPECT_EQ(doc.TextOfRange(c.first_token, 3), "Jan 3, 2023");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(AnnotatorsTest, CandidatesNonOverlappingWithinType) {
  Document doc = GenerateDocument(EarningsSpec(), "x", 0, Rng(3));
  auto candidates = GenerateCandidates(doc);
  for (size_t i = 0; i < candidates.size(); ++i) {
    for (size_t j = i + 1; j < candidates.size(); ++j) {
      bool overlap = candidates[i].first_token < candidates[j].end_token() &&
                     candidates[j].first_token < candidates[i].end_token();
      EXPECT_FALSE(overlap) << i << " vs " << j;
    }
  }
}

TEST(AnnotatorsTest, GeneratedMoneyValuesAreCandidates) {
  // Annotators must recall the generator's money values (the paper's
  // "common off-the-shelf annotators" assumption).
  Document doc = GenerateDocument(EarningsSpec(), "x", 1, Rng(9));
  auto money = GenerateCandidates(doc, FieldType::kMoney);
  for (const EntitySpan& span : doc.annotations()) {
    if (EarningsSpec().Schema().TypeOf(span.field) != FieldType::kMoney) {
      continue;
    }
    bool covered = false;
    for (const Candidate& c : money) {
      if (c.first_token == span.first_token) covered = true;
    }
    EXPECT_TRUE(covered) << span.field << " " << doc.TextOf(span);
  }
}

TEST(AnnotatorsTest, CandidateFromSpan) {
  Candidate c = CandidateFromSpan(EntitySpan{"f", 3, 2}, FieldType::kDate);
  EXPECT_EQ(c.first_token, 3);
  EXPECT_EQ(c.num_tokens, 2);
  EXPECT_EQ(c.type, FieldType::kDate);
}

// ---- BIO utilities --------------------------------------------------------

TEST(BioTest, ClassLayout) {
  EXPECT_EQ(BioNumClasses(3), 7);
  EXPECT_EQ(BioBeginClass(0), 1);
  EXPECT_EQ(BioInsideClass(0), 2);
  EXPECT_EQ(BioBeginClass(2), 5);
  EXPECT_EQ(BioFieldOf(0), -1);
  EXPECT_EQ(BioFieldOf(1), 0);
  EXPECT_EQ(BioFieldOf(6), 2);
  EXPECT_TRUE(BioIsBegin(5));
  EXPECT_FALSE(BioIsBegin(6));
  EXPECT_FALSE(BioIsBegin(0));
}

// ---- Candidate model ------------------------------------------------------

TEST(CandidateModelTest, EncodeShapes) {
  CandidateModelConfig config;
  config.num_neighbors = 8;
  CandidateScoringModel model(config, {"a", "b"});
  Document doc = GenerateDocument(InvoicesSpec(), "x", 0, Rng(4));
  ASSERT_FALSE(doc.annotations().empty());
  Candidate cand = CandidateFromSpan(doc.annotations()[0], FieldType::kString);
  CandidateEncoding enc = model.Encode(doc, cand);
  EXPECT_LE(enc.neighbor_ids.size(), 8u);
  EXPECT_GT(enc.neighbor_ids.size(), 0u);
  EXPECT_EQ(enc.neighbor_encodings.rows(),
            static_cast<int>(enc.neighbor_ids.size()));
  EXPECT_EQ(enc.neighbor_encodings.cols(), config.d_model);
  EXPECT_EQ(enc.neighborhood.rows(), 1);
  EXPECT_EQ(enc.neighborhood.cols(), config.d_model);
}

TEST(CandidateModelTest, NeighborsExcludeCandidateTokens) {
  CandidateModelConfig config;
  CandidateScoringModel model(config, {"a"});
  Document doc = GenerateDocument(InvoicesSpec(), "x", 1, Rng(5));
  ASSERT_FALSE(doc.annotations().empty());
  const EntitySpan& span = doc.annotations()[0];
  Candidate cand = CandidateFromSpan(span, FieldType::kString);
  CandidateEncoding enc = model.Encode(doc, cand);
  for (int id : enc.neighbor_ids) {
    EXPECT_FALSE(span.Covers(id));
  }
}

TEST(CandidateModelTest, PretrainReducesLoss) {
  CandidateModelConfig config;
  config.num_neighbors = 12;
  DomainSpec invoices = InvoicesSpec();
  std::vector<std::string> fields;
  for (const FieldDef& def : invoices.fields) fields.push_back(def.spec.name);
  CandidateScoringModel model(config, fields);
  auto corpus = GenerateCorpus(invoices, 25, 77, "inv");

  CandidateTrainOptions one_epoch;
  one_epoch.epochs = 1;
  double first = model.Pretrain(corpus, invoices.Schema(), one_epoch);
  CandidateTrainOptions more;
  more.epochs = 2;
  double later = model.Pretrain(corpus, invoices.Schema(), more);
  EXPECT_LT(later, first);
  EXPECT_LT(later, 0.45) << "should beat the ~0.64 chance-level BCE";
}

// ---- Sequence model -------------------------------------------------------

SequenceModelConfig TinySeqConfig() {
  SequenceModelConfig config;
  config.d_model = 16;
  config.spatial_neighbors = 6;
  return config;
}

TEST(SequenceModelTest, EncodeDocShapesAndLabels) {
  DomainSpec spec = FaraSpec();
  SequenceLabelingModel model(TinySeqConfig(), spec.Schema());
  Document doc = GenerateDocument(spec, "x", 0, Rng(6));
  EncodedDoc encoded = model.EncodeDoc(doc);
  EXPECT_EQ(encoded.num_tokens, doc.num_tokens());
  EXPECT_EQ(encoded.text_ids.size(), static_cast<size_t>(encoded.num_tokens));
  EXPECT_EQ(encoded.labels.size(), static_cast<size_t>(encoded.num_tokens));
  ASSERT_NE(encoded.neighbors, nullptr);
  EXPECT_EQ(encoded.neighbors->rows(), encoded.num_tokens);
  // Every token's neighbor list contains itself.
  for (int i = 0; i < encoded.num_tokens; ++i) {
    std::span<const int> row = encoded.neighbors->Row(i);
    EXPECT_NE(std::find(row.begin(), row.end(), i), row.end());
  }
  // Labels are consistent with annotations.
  int labeled = 0;
  for (int label : encoded.labels) {
    if (label != 0) ++labeled;
  }
  int annotated = 0;
  for (const EntitySpan& span : doc.annotations()) annotated += span.num_tokens;
  EXPECT_EQ(labeled, annotated);
}

TEST(SequenceModelTest, LogitsShape) {
  DomainSpec spec = FaraSpec();
  SequenceLabelingModel model(TinySeqConfig(), spec.Schema());
  Document doc = GenerateDocument(spec, "x", 1, Rng(7));
  EncodedDoc encoded = model.EncodeDoc(doc);
  Var logits = model.Logits(encoded);
  EXPECT_EQ(logits->value.rows(), encoded.num_tokens);
  EXPECT_EQ(logits->value.cols(),
            BioNumClasses(static_cast<int>(spec.Schema().num_fields())));
}

TEST(SequenceModelTest, PredictAppliesSingleSpanConstraint) {
  DomainSpec spec = FaraSpec();
  SequenceLabelingModel model(TinySeqConfig(), spec.Schema());
  Document doc = GenerateDocument(spec, "x", 2, Rng(8));
  std::vector<EntitySpan> predicted = model.Predict(doc);
  std::set<std::string> fields;
  for (const EntitySpan& span : predicted) {
    EXPECT_TRUE(fields.insert(span.field).second)
        << "duplicate span for " << span.field;
  }
}

TEST(SequenceModelTest, CanOverfitSingleDocument) {
  DomainSpec spec = FaraSpec();
  SequenceModelConfig config = TinySeqConfig();
  SequenceLabelingModel model(config, spec.Schema());
  Document doc = GenerateDocument(spec, "x", 0, Rng(9));
  ASSERT_GE(doc.annotations().size(), 3u);

  EncodedDoc encoded = model.EncodeDoc(doc);
  AdamOptimizer optimizer(model.Params());
  for (int step = 0; step < 150; ++step) {
    Var loss = model.Loss(encoded);
    Backward(loss);
    optimizer.Step();
  }
  // After overfitting, the model must reproduce the gold annotations.
  std::vector<EntitySpan> predicted = model.Predict(doc);
  int hits = 0;
  for (const EntitySpan& gold : doc.annotations()) {
    for (const EntitySpan& p : predicted) {
      if (p == gold) ++hits;
    }
  }
  EXPECT_GE(hits, static_cast<int>(doc.annotations().size()) - 1);
}

TEST(SequenceModelTest, MaxTokensTruncates) {
  SequenceModelConfig config = TinySeqConfig();
  config.max_tokens = 10;
  DomainSpec spec = EarningsSpec();
  SequenceLabelingModel model(config, spec.Schema());
  Document doc = GenerateDocument(spec, "x", 0, Rng(10));
  ASSERT_GT(doc.num_tokens(), 10);
  EncodedDoc encoded = model.EncodeDoc(doc);
  EXPECT_EQ(encoded.num_tokens, 10);
}

// ---- Trainer --------------------------------------------------------------

TEST(TrainerTest, TrainingImprovesOverInit) {
  DomainSpec spec = FaraSpec();
  auto train_docs = GenerateCorpus(spec, 12, 31, "t");
  auto test_docs = GenerateCorpus(spec, 10, 32, "e");

  SequenceLabelingModel model(TinySeqConfig(), spec.Schema());
  double before = MicroF1OnDocs(model, test_docs);

  TrainOptions options;
  options.total_steps = 500;
  options.validate_every = 100;
  TrainResult result = TrainSequenceModel(model, train_docs, {}, options);
  double after = MicroF1OnDocs(model, test_docs);
  EXPECT_EQ(result.steps, 500);
  EXPECT_GT(after, before);
  EXPECT_GT(after, 0.15);
}

TEST(TrainerTest, DeterministicGivenSeeds) {
  DomainSpec spec = FaraSpec();
  auto train_docs = GenerateCorpus(spec, 8, 41, "t");
  TrainOptions options;
  options.total_steps = 120;

  SequenceLabelingModel a(TinySeqConfig(), spec.Schema());
  SequenceLabelingModel b(TinySeqConfig(), spec.Schema());
  TrainSequenceModel(a, train_docs, {}, options);
  TrainSequenceModel(b, train_docs, {}, options);
  auto pa = a.Params();
  auto pb = b.Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].param->value, pb[i].param->value) << pa[i].name;
  }
}

TEST(TrainerTest, SyntheticFractionZeroIgnoresSynthetics) {
  DomainSpec spec = FaraSpec();
  auto train_docs = GenerateCorpus(spec, 6, 51, "t");
  // A poisoned synthetic that would corrupt training if sampled.
  std::vector<Document> poison = GenerateCorpus(spec, 2, 52, "p");
  for (Document& doc : poison) {
    for (EntitySpan& span : doc.mutable_annotations()) {
      span.field = "registration_date";
      span.num_tokens = 1;
    }
  }

  TrainOptions options;
  options.total_steps = 120;
  options.synthetic_fraction = 0.0;
  SequenceLabelingModel with_poison(TinySeqConfig(), spec.Schema());
  TrainSequenceModel(with_poison, train_docs, poison, options);
  SequenceLabelingModel without(TinySeqConfig(), spec.Schema());
  TrainSequenceModel(without, train_docs, {}, options);
  auto pa = with_poison.Params();
  auto pb = without.Params();
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].param->value, pb[i].param->value) << pa[i].name;
  }
}

TEST(TrainOptionsTest, DefaultsValidateCleanly) {
  EXPECT_EQ(SequenceTrainOptions{}.Validate(), "");
  EXPECT_EQ(CandidatePretrainOptions{}.Validate(), "");
}

TEST(TrainOptionsTest, ValidateNamesFieldValueAndLegalRange) {
  SequenceTrainOptions options;
  options.total_steps = 0;
  std::string error = options.Validate();
  EXPECT_NE(error.find("TrainOptions.total_steps"), std::string::npos);
  EXPECT_NE(error.find("= 0"), std::string::npos);

  options = {};
  options.learning_rate = -1.0f;
  EXPECT_NE(options.Validate().find("learning_rate"), std::string::npos);

  options = {};
  options.validate_every = 0;
  EXPECT_NE(options.Validate().find("validate_every"), std::string::npos);

  options = {};
  options.synthetic_fraction = 1.5;
  EXPECT_NE(options.Validate().find("synthetic_fraction"),
            std::string::npos);
}

TEST(TrainOptionsTest, CandidateValidateCoversEachField) {
  CandidatePretrainOptions options;
  options.epochs = 0;
  EXPECT_NE(options.Validate().find("CandidateTrainOptions.epochs"),
            std::string::npos);

  options = {};
  options.learning_rate = 0.0f;
  EXPECT_NE(options.Validate().find("learning_rate"), std::string::npos);

  options = {};
  options.negatives_per_positive = -1;
  EXPECT_NE(options.Validate().find("negatives_per_positive"),
            std::string::npos);
}

}  // namespace
}  // namespace fieldswap
