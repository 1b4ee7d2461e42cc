#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "core/field_pairs.h"
#include "core/human_expert.h"
#include "core/key_phrases.h"
#include "core/pipeline.h"
#include "core/swap.h"
#include "ocr/line_detector.h"
#include "par/parallel.h"
#include "synth/domains.h"
#include "synth/generator.h"
#include "util/rng.h"
#include "util/strings.h"

namespace fieldswap {
namespace {

KeyPhrase MakePhrase(std::vector<std::string> words, double importance = 1.0) {
  KeyPhrase phrase;
  phrase.words = std::move(words);
  phrase.importance = importance;
  return phrase;
}

/// A paystub-like row pair sharing the row label, plus an unrelated item:
///   "Base Salary   $100.00   $900.00"   <- current.salary / ytd.salary
///   "Net Pay: $70.00"
Document PayRowDoc() {
  Document doc("p", "test", 612, 792);
  doc.AddToken("Base", BBox{0, 0, 25, 10});
  doc.AddToken("Salary", BBox{30, 0, 65, 10});
  doc.AddToken("$100.00", BBox{200, 0, 245, 10});
  doc.AddToken("$900.00", BBox{330, 0, 375, 10});
  doc.AddToken("Net", BBox{0, 30, 20, 40});
  doc.AddToken("Pay:", BBox{24, 30, 48, 40});
  doc.AddToken("$70.00", BBox{54, 30, 90, 40});
  DetectAndAssignLines(doc);
  doc.AddAnnotation(EntitySpan{"current.salary", 2, 1});
  doc.AddAnnotation(EntitySpan{"year_to_date.salary", 3, 1});
  doc.AddAnnotation(EntitySpan{"net_pay", 6, 1});
  return doc;
}

KeyPhraseConfig PayRowConfig() {
  KeyPhraseConfig config;
  config["current.salary"] = {MakePhrase({"Base", "Salary"}),
                              MakePhrase({"Base"})};
  config["year_to_date.salary"] = {MakePhrase({"Base", "Salary"})};
  config["current.bonus"] = {MakePhrase({"Bonus"}),
                             MakePhrase({"Incentive", "Pay"})};
  config["net_pay"] = {MakePhrase({"Net", "Pay"})};
  return config;
}

// ---- CollectSourceMatches -------------------------------------------------

TEST(CollectSourceMatchesTest, LongestMatchWinsOnOverlap) {
  Document doc = PayRowDoc();
  // "Base Salary" (tokens 0-1) and "Base" (token 0) overlap; the longer
  // phrase must win and the shorter must be suppressed.
  std::vector<PhraseMatch> matches = CollectSourceMatches(
      doc, {MakePhrase({"Base", "Salary"}), MakePhrase({"Base"})});
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].first_token, 0);
  EXPECT_EQ(matches[0].num_tokens, 2);
}

TEST(CollectSourceMatchesTest, EqualLengthTieBreaksOnEarlierStart) {
  Document doc = PayRowDoc();
  // "Salary $100.00" would match tokens 1-2 but token 2 is annotated, so
  // build the tie on the unannotated "Net Pay:" row instead: "Net Pay"
  // (tokens 4-5) vs "Pay $70.00" — token 6 is annotated too. Use a doc
  // without annotations to isolate pure tie-breaking.
  Document plain("t", "test", 612, 792);
  plain.AddToken("Gross", BBox{0, 0, 30, 10});
  plain.AddToken("Pay", BBox{34, 0, 54, 10});
  plain.AddToken("Rate", BBox{58, 0, 80, 10});
  DetectAndAssignLines(plain);
  // Two 2-token matches overlap at token 1; equal length, so the earlier
  // start (tokens 0-1) is kept.
  std::vector<PhraseMatch> matches = CollectSourceMatches(
      plain, {MakePhrase({"Pay", "Rate"}), MakePhrase({"Gross", "Pay"})});
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].first_token, 0);
  EXPECT_EQ(matches[0].num_tokens, 2);
}

TEST(CollectSourceMatchesTest, ExcludesMatchesOverlappingAnnotations) {
  Document doc = PayRowDoc();
  // "$100.00" is token 2, the annotated current.salary value: key phrases
  // are labels, so a match on a value span must be excluded.
  EXPECT_TRUE(CollectSourceMatches(doc, {MakePhrase({"$100.00"})}).empty());
  // A phrase straddling label and value ("Salary $100.00") is excluded for
  // the same reason.
  EXPECT_TRUE(
      CollectSourceMatches(doc, {MakePhrase({"Salary", "$100.00"})}).empty());
}

TEST(CollectSourceMatchesTest, DisjointMatchesReturnInTokenOrder) {
  Document doc = PayRowDoc();
  std::vector<PhraseMatch> matches = CollectSourceMatches(
      doc, {MakePhrase({"Net", "Pay"}), MakePhrase({"Base", "Salary"})});
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].first_token, 0);
  EXPECT_EQ(matches[1].first_token, 4);
}

// ---- SwapOnce -------------------------------------------------------------

TEST(SwapOnceTest, ReplacesPhraseAndRelabels) {
  Document doc = PayRowDoc();
  FieldSwapOptions options;
  auto synthetic =
      SwapOnce(doc, "current.salary", "current.bonus", MakePhrase({"Bonus"}),
               PayRowConfig(), options);
  ASSERT_TRUE(synthetic.has_value());
  EXPECT_EQ(synthetic->token(0).text, "Bonus");
  EXPECT_EQ(synthetic->token(1).text, "$100.00");
  // current.salary relabeled; net_pay untouched.
  EXPECT_TRUE(synthetic->HasField("current.bonus"));
  EXPECT_FALSE(synthetic->HasField("current.salary"));
  EXPECT_TRUE(synthetic->HasField("net_pay"));
  EXPECT_EQ(synthetic->TextOf(synthetic->AnnotationsFor("current.bonus")[0]),
            "$100.00");
}

TEST(SwapOnceTest, DropsAffectedSiblingField) {
  Document doc = PayRowDoc();
  FieldSwapOptions options;
  auto synthetic =
      SwapOnce(doc, "current.salary", "current.bonus", MakePhrase({"Bonus"}),
               PayRowConfig(), options);
  ASSERT_TRUE(synthetic.has_value());
  // year_to_date.salary's key phrase ("Base Salary") was replaced by a
  // phrase that is not year_to_date.salary's -> its label is dropped.
  EXPECT_FALSE(synthetic->HasField("year_to_date.salary"));
}

TEST(SwapOnceTest, KeepsSiblingWhenFilterDisabled) {
  Document doc = PayRowDoc();
  FieldSwapOptions options;
  options.drop_affected_fields = false;  // the paper's simplest variant
  auto synthetic =
      SwapOnce(doc, "current.salary", "current.bonus", MakePhrase({"Bonus"}),
               PayRowConfig(), options);
  ASSERT_TRUE(synthetic.has_value());
  EXPECT_TRUE(synthetic->HasField("year_to_date.salary"));
}

TEST(SwapOnceTest, FieldToFieldVariantKeepsSibling) {
  Document doc = PayRowDoc();
  FieldSwapOptions options;
  // "Base" is also a key phrase of current.salary (variant swap). The
  // sibling ytd.salary's phrase list contains "Base Salary" but not "Base";
  // per the filter rule the sibling is dropped only when the incoming
  // phrase is foreign to it — here it IS foreign, so add it first.
  KeyPhraseConfig config = PayRowConfig();
  config["year_to_date.salary"].push_back(MakePhrase({"Base"}));
  auto synthetic = SwapOnce(doc, "current.salary", "current.salary",
                            MakePhrase({"Base"}), config, options);
  ASSERT_TRUE(synthetic.has_value());
  EXPECT_EQ(synthetic->token(0).text, "Base");
  EXPECT_EQ(synthetic->token(1).text, "$100.00");
  EXPECT_TRUE(synthetic->HasField("current.salary"));
  EXPECT_TRUE(synthetic->HasField("year_to_date.salary"));
}

TEST(SwapOnceTest, DiscardsUnchangedDocument) {
  Document doc = PayRowDoc();
  FieldSwapOptions options;
  // Replacing "Base Salary" with "Base Salary" changes nothing -> discard.
  auto synthetic =
      SwapOnce(doc, "current.salary", "year_to_date.salary",
               MakePhrase({"Base", "Salary"}), PayRowConfig(), options);
  EXPECT_FALSE(synthetic.has_value());
}

TEST(SwapOnceTest, KeepsUnchangedWhenDiscardDisabled) {
  Document doc = PayRowDoc();
  FieldSwapOptions options;
  options.discard_unchanged = false;
  auto synthetic =
      SwapOnce(doc, "current.salary", "year_to_date.salary",
               MakePhrase({"Base", "Salary"}), PayRowConfig(), options);
  ASSERT_TRUE(synthetic.has_value());
  // The (contradictory) relabeling happened even though text is unchanged.
  EXPECT_EQ(synthetic->AnnotationsFor("year_to_date.salary").size(), 2u);
}

TEST(SwapOnceTest, NoMatchReturnsNullopt) {
  Document doc = PayRowDoc();
  KeyPhraseConfig config = PayRowConfig();
  config["current.salary"] = {MakePhrase({"Regular", "Pay"})};  // absent
  auto synthetic =
      SwapOnce(doc, "current.salary", "current.bonus", MakePhrase({"Bonus"}),
               config, FieldSwapOptions{});
  EXPECT_FALSE(synthetic.has_value());
}

TEST(SwapOnceTest, SourceFieldAbsentReturnsNullopt) {
  Document doc = PayRowDoc();
  auto synthetic =
      SwapOnce(doc, "current.vacation", "current.bonus",
               MakePhrase({"Bonus"}), PayRowConfig(), FieldSwapOptions{});
  EXPECT_FALSE(synthetic.has_value());
}

TEST(SwapOnceTest, PrefersLongestMatchOnOverlap) {
  Document doc = PayRowDoc();
  // Source phrases: "Base Salary" and "Base" overlap; the longer one wins,
  // so both tokens are replaced by the target phrase once.
  auto synthetic =
      SwapOnce(doc, "current.salary", "current.bonus",
               MakePhrase({"Incentive", "Pay"}), PayRowConfig(),
               FieldSwapOptions{});
  ASSERT_TRUE(synthetic.has_value());
  EXPECT_EQ(synthetic->token(0).text, "Incentive");
  EXPECT_EQ(synthetic->token(1).text, "Pay");
  EXPECT_EQ(synthetic->token(2).text, "$100.00");
  EXPECT_EQ(synthetic->num_tokens(), doc.num_tokens());
}

TEST(SwapOnceTest, PreservesTrailingColon) {
  Document doc = PayRowDoc();
  KeyPhraseConfig config = PayRowConfig();
  auto synthetic =
      SwapOnce(doc, "net_pay", "net_pay", MakePhrase({"Take", "Home", "Pay"}),
               config, FieldSwapOptions{});
  ASSERT_TRUE(synthetic.has_value());
  // "Net Pay:" -> "Take Home Pay:" keeps the label colon styling.
  int last_label = 0;
  for (int i = 0; i < synthetic->num_tokens(); ++i) {
    if (synthetic->token(i).text.starts_with("Pay")) last_label = i;
  }
  EXPECT_EQ(synthetic->token(last_label).text, "Pay:");
}

TEST(SwapOnceTest, ReplacesAllOccurrences) {
  Document doc("m", "test", 612, 792);
  doc.AddToken("Total", BBox{0, 0, 30, 10});
  doc.AddToken("$1.00", BBox{40, 0, 70, 10});
  doc.AddToken("Total", BBox{0, 30, 30, 40});
  doc.AddToken("$2.00", BBox{40, 30, 70, 40});
  DetectAndAssignLines(doc);
  doc.AddAnnotation(EntitySpan{"total", 1, 1});
  KeyPhraseConfig config;
  config["total"] = {MakePhrase({"Total"})};
  config["subtotal"] = {MakePhrase({"Subtotal"})};
  auto synthetic = SwapOnce(doc, "total", "subtotal",
                            MakePhrase({"Subtotal"}), config,
                            FieldSwapOptions{});
  ASSERT_TRUE(synthetic.has_value());
  EXPECT_EQ(synthetic->token(0).text, "Subtotal");
  EXPECT_EQ(synthetic->token(2).text, "Subtotal");
}

TEST(SwapOnceTest, NeverReplacesValueTokens) {
  // The value text coincides with a key phrase word; annotated tokens must
  // not be treated as phrase matches.
  Document doc("v", "test", 612, 792);
  doc.AddToken("Station", BBox{0, 0, 40, 10});
  doc.AddToken("Station", BBox{100, 0, 140, 10});  // the value, annotated
  DetectAndAssignLines(doc);
  doc.AddAnnotation(EntitySpan{"station", 1, 1});
  KeyPhraseConfig config;
  config["station"] = {MakePhrase({"Station"})};
  config["agency"] = {MakePhrase({"Agency"})};
  auto synthetic = SwapOnce(doc, "station", "agency", MakePhrase({"Agency"}),
                            config, FieldSwapOptions{});
  ASSERT_TRUE(synthetic.has_value());
  EXPECT_EQ(synthetic->token(0).text, "Agency");
  EXPECT_EQ(synthetic->token(1).text, "Station") << "value must be intact";
}

// ---- Field pairs ----------------------------------------------------------

KeyPhraseConfig PhrasesForAll(const DomainSchema& schema) {
  KeyPhraseConfig config;
  for (const FieldSpec& field : schema.fields()) {
    config[field.name] = {MakePhrase({field.name})};
  }
  return config;
}

TEST(FieldPairsTest, FieldToFieldIsIdentity) {
  DomainSchema schema = FaraSpec().Schema();
  auto pairs = BuildFieldPairs(schema, MappingStrategy::kFieldToField,
                               PhrasesForAll(schema));
  EXPECT_EQ(pairs.size(), schema.num_fields());
  for (const FieldPair& pair : pairs) EXPECT_EQ(pair.source, pair.target);
}

TEST(FieldPairsTest, TypeToTypeOnlySameType) {
  DomainSchema schema = FaraSpec().Schema();
  auto pairs = BuildFieldPairs(schema, MappingStrategy::kTypeToType,
                               PhrasesForAll(schema));
  // FARA: 1 date, 1 number, 4 string -> 1 + 1 + 16 = 18 ordered pairs.
  EXPECT_EQ(pairs.size(), 18u);
  for (const FieldPair& pair : pairs) {
    EXPECT_EQ(schema.TypeOf(pair.source), schema.TypeOf(pair.target));
  }
}

TEST(FieldPairsTest, AllToAllIsFullSquare) {
  DomainSchema schema = FaraSpec().Schema();
  auto pairs = BuildFieldPairs(schema, MappingStrategy::kAllToAll,
                               PhrasesForAll(schema));
  EXPECT_EQ(pairs.size(), 36u);
}

TEST(FieldPairsTest, FieldsWithoutPhrasesExcluded) {
  DomainSchema schema = FaraSpec().Schema();
  KeyPhraseConfig config = PhrasesForAll(schema);
  config.erase("signer_name");
  config["registrant_name"].clear();
  auto pairs = BuildFieldPairs(schema, MappingStrategy::kTypeToType, config);
  for (const FieldPair& pair : pairs) {
    EXPECT_NE(pair.source, "signer_name");
    EXPECT_NE(pair.target, "signer_name");
    EXPECT_NE(pair.source, "registrant_name");
    EXPECT_NE(pair.target, "registrant_name");
  }
}

TEST(FieldPairsTest, StrategyNames) {
  EXPECT_EQ(MappingStrategyName(MappingStrategy::kFieldToField),
            "field-to-field");
  EXPECT_EQ(MappingStrategyName(MappingStrategy::kTypeToType),
            "type-to-type");
  EXPECT_EQ(MappingStrategyName(MappingStrategy::kAllToAll), "all-to-all");
  EXPECT_EQ(MappingStrategyName(MappingStrategy::kHumanExpert),
            "human expert");
}

// ---- Human expert ---------------------------------------------------------

TEST(HumanExpertTest, ExcludesNoPhraseFields) {
  HumanExpertConfig config = MakeHumanExpertConfig(EarningsSpec());
  EXPECT_EQ(config.phrases.count("employee_name"), 0u);
  EXPECT_EQ(config.phrases.count("employer_address"), 0u);
  for (const FieldPair& pair : config.pairs) {
    EXPECT_NE(pair.source, "employee_name");
    EXPECT_NE(pair.target, "employer_address");
  }
}

TEST(HumanExpertTest, SuppliesFullVocabulary) {
  DomainSpec spec = EarningsSpec();
  HumanExpertConfig config = MakeHumanExpertConfig(spec);
  const auto& phrases = config.phrases.at("current.sales_pay");
  EXPECT_EQ(phrases.size(), spec.Find("current.sales_pay")->phrases.size());
}

TEST(HumanExpertTest, PrunesContradictoryCrossColumnPairs) {
  HumanExpertConfig config = MakeHumanExpertConfig(EarningsSpec());
  for (const FieldPair& pair : config.pairs) {
    bool src_current = pair.source.starts_with("current.");
    bool tgt_current = pair.target.starts_with("current.");
    bool src_ytd = pair.source.starts_with("year_to_date.");
    bool tgt_ytd = pair.target.starts_with("year_to_date.");
    EXPECT_EQ(src_current, tgt_current) << pair.source << "->" << pair.target;
    EXPECT_EQ(src_ytd, tgt_ytd) << pair.source << "->" << pair.target;
  }
}

TEST(HumanExpertTest, PairsRespectBaseTypes) {
  DomainSpec spec = LoanPaymentsSpec();
  DomainSchema schema = spec.Schema();
  HumanExpertConfig config = MakeHumanExpertConfig(spec);
  EXPECT_FALSE(config.pairs.empty());
  for (const FieldPair& pair : config.pairs) {
    EXPECT_EQ(schema.TypeOf(pair.source), schema.TypeOf(pair.target));
  }
}

// ---- GenerateSyntheticDocuments --------------------------------------------

TEST(GenerateSyntheticsTest, TypeToTypeProducesMoreThanFieldToField) {
  DomainSpec spec = EarningsSpec();
  auto docs = GenerateCorpus(spec, 15, 7, "g");
  HumanExpertConfig expert = MakeHumanExpertConfig(spec);
  DomainSchema schema = spec.Schema();

  SwapStats f2f_stats, t2t_stats;
  auto f2f = GenerateSyntheticDocuments(
      docs, expert.phrases,
      BuildFieldPairs(schema, MappingStrategy::kFieldToField, expert.phrases),
      FieldSwapOptions{}, &f2f_stats);
  auto t2t = GenerateSyntheticDocuments(
      docs, expert.phrases,
      BuildFieldPairs(schema, MappingStrategy::kTypeToType, expert.phrases),
      FieldSwapOptions{}, &t2t_stats);
  EXPECT_GT(t2t.size(), 2 * f2f.size()) << "Table III shape: t2t >> f2f";
  EXPECT_EQ(static_cast<int64_t>(f2f.size()), f2f_stats.generated);
  EXPECT_EQ(static_cast<int64_t>(t2t.size()), t2t_stats.generated);
  EXPECT_GT(t2t_stats.discarded_unchanged, 0)
      << "same-phrase cross-column swaps must be discarded";
}

TEST(GenerateSyntheticsTest, MaxSyntheticsCapsOutput) {
  DomainSpec spec = EarningsSpec();
  auto docs = GenerateCorpus(spec, 10, 8, "g");
  HumanExpertConfig expert = MakeHumanExpertConfig(spec);
  FieldSwapOptions options;
  options.max_synthetics = 25;
  auto synthetics = GenerateSyntheticDocuments(
      docs, expert.phrases,
      BuildFieldPairs(spec.Schema(), MappingStrategy::kTypeToType,
                      expert.phrases),
      options);
  EXPECT_EQ(synthetics.size(), 25u);
}

TEST(GenerateSyntheticsTest, SyntheticIdsEncodeProvenance) {
  DomainSpec spec = FaraSpec();
  auto docs = GenerateCorpus(spec, 5, 9, "g");
  HumanExpertConfig expert = MakeHumanExpertConfig(spec);
  auto synthetics = GenerateSyntheticDocuments(
      docs, expert.phrases,
      BuildFieldPairs(spec.Schema(), MappingStrategy::kFieldToField,
                      expert.phrases),
      FieldSwapOptions{});
  for (const Document& doc : synthetics) {
    EXPECT_NE(doc.id().find("#swap:"), std::string::npos) << doc.id();
  }
}

TEST(GenerateSyntheticsTest, EmptyInputsProduceNothing) {
  EXPECT_TRUE(GenerateSyntheticDocuments({}, {}, {}, FieldSwapOptions{})
                  .empty());
  DomainSpec spec = FaraSpec();
  auto docs = GenerateCorpus(spec, 3, 10, "g");
  EXPECT_TRUE(
      GenerateSyntheticDocuments(docs, {}, {}, FieldSwapOptions{}).empty());
}

// ---- Key phrase inference (structure-level checks) ---------------------------

TEST(KeyPhraseTest, TextJoinsWords) {
  EXPECT_EQ(MakePhrase({"Amount", "Due"}).Text(), "Amount Due");
}

TEST(KeyPhraseTest, ImportantTokensAreSparse) {
  CandidateModelConfig config;
  config.num_neighbors = 16;
  CandidateScoringModel model(config, {"f"});
  Document doc = GenerateDocument(EarningsSpec(), "x", 0, Rng(11));
  ASSERT_FALSE(doc.annotations().empty());
  Candidate cand =
      CandidateFromSpan(doc.annotations().back(), FieldType::kMoney);
  auto important = ImportantTokens(model, doc, cand, /*sparsemax_scale=*/8.0);
  EXPECT_FALSE(important.empty());
  EXPECT_LT(important.size(), 16u) << "sparsemax must zero out some tokens";
  double sum = 0;
  for (const TokenImportance& ti : important) {
    EXPECT_GT(ti.score, 0.0);
    sum += ti.score;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(KeyPhraseTest, InferenceExcludesGroundTruthTokens) {
  // An untrained model still must never emit a phrase containing another
  // field's value tokens (Sec. II-A5 exclusion is structural).
  CandidateModelConfig config;
  CandidateScoringModel model(config, {"f"});
  DomainSpec spec = FaraSpec();
  auto docs = GenerateCorpus(spec, 6, 12, "kp");
  KeyPhraseInferenceOptions options;
  options.threshold = 0.0;
  options.top_k = 10;
  KeyPhraseConfig inferred =
      InferKeyPhrases(model, docs, spec.Schema(), options);
  // Collect all ground-truth texts.
  std::set<std::string> gt_texts;
  for (const Document& doc : docs) {
    for (const EntitySpan& span : doc.annotations()) {
      gt_texts.insert(doc.TextOf(span));
    }
  }
  for (const auto& [field, phrases] : inferred) {
    for (const KeyPhrase& phrase : phrases) {
      EXPECT_EQ(gt_texts.count(phrase.Text()), 0u)
          << field << ": " << phrase.Text();
    }
  }
}

TEST(KeyPhraseTest, TopKLimitsPhraseCount) {
  CandidateModelConfig config;
  CandidateScoringModel model(config, {"f"});
  DomainSpec spec = FaraSpec();
  auto docs = GenerateCorpus(spec, 8, 13, "kp");
  KeyPhraseInferenceOptions options;
  options.top_k = 2;
  options.threshold = 0.0;
  KeyPhraseConfig inferred =
      InferKeyPhrases(model, docs, spec.Schema(), options);
  for (const auto& [field, phrases] : inferred) {
    EXPECT_LE(phrases.size(), 2u) << field;
  }
}

TEST(KeyPhraseTest, ThresholdFiltersWeakPhrases) {
  CandidateModelConfig config;
  CandidateScoringModel model(config, {"f"});
  DomainSpec spec = FaraSpec();
  auto docs = GenerateCorpus(spec, 8, 13, "kp");
  KeyPhraseInferenceOptions loose;
  loose.threshold = 0.0;
  loose.top_k = 100;
  KeyPhraseInferenceOptions strict = loose;
  strict.threshold = 0.95;
  auto all = InferKeyPhrases(model, docs, spec.Schema(), loose);
  auto filtered = InferKeyPhrases(model, docs, spec.Schema(), strict);
  size_t total_all = 0, total_filtered = 0;
  for (const auto& [f, p] : all) total_all += p.size();
  for (const auto& [f, p] : filtered) {
    total_filtered += p.size();
    for (const KeyPhrase& phrase : p) {
      EXPECT_GE(phrase.importance, 0.95);
    }
  }
  EXPECT_LT(total_filtered, total_all);
}

// ---- Pipeline -------------------------------------------------------------

TEST(PipelineTest, HumanExpertNeedsNoModel) {
  DomainSpec spec = EarningsSpec();
  auto docs = GenerateCorpus(spec, 8, 14, "pl");
  FieldSwapPipelineOptions options;
  options.strategy = MappingStrategy::kHumanExpert;
  AugmentationResult result =
      RunFieldSwap(docs, spec, /*candidate_model=*/nullptr, options);
  EXPECT_FALSE(result.phrases.empty());
  EXPECT_FALSE(result.pairs.empty());
  EXPECT_GT(result.synthetics.size(), 0u);
  EXPECT_EQ(result.stats.generated,
            static_cast<int64_t>(result.synthetics.size()));
}

TEST(PipelineTest, SyntheticsPreserveDomainAndGeometry) {
  DomainSpec spec = EarningsSpec();
  auto docs = GenerateCorpus(spec, 6, 15, "pl");
  FieldSwapPipelineOptions options;
  options.strategy = MappingStrategy::kHumanExpert;
  AugmentationResult result = RunFieldSwap(docs, spec, nullptr, options);
  for (const Document& doc : result.synthetics) {
    EXPECT_EQ(doc.domain(), "earnings");
    EXPECT_GT(doc.num_tokens(), 0);
    for (const EntitySpan& span : doc.annotations()) {
      EXPECT_LE(span.end_token(), doc.num_tokens());
    }
  }
}


// ---- Augmentation oracle ----------------------------------------------------
//
// A verbatim copy of the copy-per-swap generator (one full Document per
// candidate swap, then an Rng subsample) that GenerateSyntheticDocuments
// replaced with plan-then-materialize. The production code must keep
// emitting exactly what this reference emits: same ids, order, tokens,
// boxes, lines, annotations and SwapStats.

namespace oracle {

bool SamePhrase(const std::vector<std::string>& a,
                const std::vector<std::string>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!EqualsIgnoreCase(TrimPunctuation(a[i]), TrimPunctuation(b[i]))) {
      return false;
    }
  }
  return true;
}

bool OverlapsAnyAnnotation(const Document& doc, const PhraseMatch& match) {
  for (const EntitySpan& span : doc.annotations()) {
    if (match.first_token < span.end_token() &&
        span.first_token < match.first_token + match.num_tokens) {
      return true;
    }
  }
  return false;
}

std::vector<PhraseMatch> CollectSourceMatches(
    const Document& doc, const std::vector<KeyPhrase>& source_phrases) {
  std::vector<PhraseMatch> all;
  for (const KeyPhrase& phrase : source_phrases) {
    for (const PhraseMatch& match : doc.FindPhrase(phrase.words)) {
      if (!OverlapsAnyAnnotation(doc, match)) all.push_back(match);
    }
  }
  std::sort(all.begin(), all.end(),
            [](const PhraseMatch& a, const PhraseMatch& b) {
              if (a.num_tokens != b.num_tokens) {
                return a.num_tokens > b.num_tokens;
              }
              return a.first_token < b.first_token;
            });
  std::vector<PhraseMatch> kept;
  for (const PhraseMatch& match : all) {
    bool overlaps = false;
    for (const PhraseMatch& existing : kept) {
      if (match.first_token < existing.first_token + existing.num_tokens &&
          existing.first_token < match.first_token + match.num_tokens) {
        overlaps = true;
        break;
      }
    }
    if (!overlaps) kept.push_back(match);
  }
  std::sort(kept.begin(), kept.end(),
            [](const PhraseMatch& a, const PhraseMatch& b) {
              return a.first_token < b.first_token;
            });
  return kept;
}

std::optional<Document> SwapOnce(const Document& doc,
                                 const std::string& source_field,
                                 const std::string& target_field,
                                 const KeyPhrase& target_phrase,
                                 const KeyPhraseConfig& phrases,
                                 const FieldSwapOptions& options) {
  if (!doc.HasField(source_field)) return std::nullopt;
  auto source_it = phrases.find(source_field);
  if (source_it == phrases.end()) return std::nullopt;
  std::vector<PhraseMatch> matches =
      oracle::CollectSourceMatches(doc, source_it->second);
  if (matches.empty()) return std::nullopt;

  std::vector<std::string> affected_fields;
  if (options.drop_affected_fields) {
    for (const auto& [field, field_phrases] : phrases) {
      if (field == source_field) continue;
      bool target_is_theirs = false;
      for (const KeyPhrase& p : field_phrases) {
        if (SamePhrase(p.words, target_phrase.words)) target_is_theirs = true;
      }
      if (target_is_theirs) continue;
      bool affected = false;
      for (const KeyPhrase& p : field_phrases) {
        for (const PhraseMatch& m : doc.FindPhrase(p.words)) {
          for (const PhraseMatch& replaced : matches) {
            if (m.first_token < replaced.first_token + replaced.num_tokens &&
                replaced.first_token < m.first_token + m.num_tokens) {
              affected = true;
            }
          }
        }
      }
      if (affected) affected_fields.push_back(field);
    }
  }

  Document synthetic = doc;
  for (auto it = matches.rbegin(); it != matches.rend(); ++it) {
    std::vector<std::string> replacement = target_phrase.words;
    const std::string& old_last =
        doc.token(it->first_token + it->num_tokens - 1).text;
    if (!old_last.empty() && old_last.back() == ':' &&
        (replacement.back().empty() || replacement.back().back() != ':')) {
      replacement.back().push_back(':');
    }
    synthetic.ReplaceTokenRange(it->first_token, it->num_tokens, replacement);
  }

  if (!affected_fields.empty()) {
    std::vector<EntitySpan> kept;
    for (const EntitySpan& span : synthetic.annotations()) {
      if (std::find(affected_fields.begin(), affected_fields.end(),
                    span.field) == affected_fields.end()) {
        kept.push_back(span);
      }
    }
    synthetic.mutable_annotations() = std::move(kept);
  }
  for (EntitySpan& span : synthetic.mutable_annotations()) {
    if (span.field == source_field) span.field = target_field;
  }

  if (options.discard_unchanged && synthetic.SameTokenTexts(doc)) {
    return std::nullopt;
  }
  return synthetic;
}

/// The max_synthetics subsample, split out so one uncapped reference run
/// serves every cap.
std::vector<Document> Subsample(std::vector<Document> synthetics,
                                const FieldSwapOptions& options) {
  if (options.max_synthetics > 0 &&
      static_cast<int>(synthetics.size()) > options.max_synthetics) {
    Rng rng(options.sample_seed);
    rng.Shuffle(synthetics);
    synthetics.resize(static_cast<size_t>(options.max_synthetics));
  }
  return synthetics;
}

std::vector<Document> GenerateSyntheticDocuments(
    const std::vector<Document>& train_docs, const KeyPhraseConfig& phrases,
    const std::vector<FieldPair>& pairs, const FieldSwapOptions& options,
    SwapStats* stats) {
  SwapStats local_stats;
  std::vector<Document> synthetics;
  for (const Document& doc : train_docs) {
    for (const FieldPair& pair : pairs) {
      auto source_it = phrases.find(pair.source);
      auto target_it = phrases.find(pair.target);
      if (source_it == phrases.end() || target_it == phrases.end()) continue;
      if (!doc.HasField(pair.source)) continue;
      if (oracle::CollectSourceMatches(doc, source_it->second).empty()) continue;
      ++local_stats.pairs_with_match;
      int emitted = 0;
      for (const KeyPhrase& target_phrase : target_it->second) {
        std::optional<Document> synthetic = oracle::SwapOnce(
            doc, pair.source, pair.target, target_phrase, phrases, options);
        if (!synthetic.has_value()) {
          ++local_stats.discarded_unchanged;
          continue;
        }
        synthetic->set_id(doc.id() + "#swap:" + pair.source + ">" +
                          pair.target + ":" + std::to_string(emitted));
        synthetics.push_back(std::move(*synthetic));
        ++emitted;
        ++local_stats.generated;
      }
    }
  }
  if (stats != nullptr) *stats = local_stats;
  return Subsample(std::move(synthetics), options);
}

}  // namespace oracle

void ExpectSameDocuments(const std::vector<Document>& expected,
                         const std::vector<Document>& actual,
                         const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    const Document& e = expected[i];
    const Document& a = actual[i];
    SCOPED_TRACE(context + " synthetic " + std::to_string(i) + " " + e.id());
    ASSERT_EQ(e.id(), a.id());
    EXPECT_EQ(e.domain(), a.domain());
    EXPECT_EQ(e.width(), a.width());
    EXPECT_EQ(e.height(), a.height());
    ASSERT_EQ(e.tokens(), a.tokens());  // text, box and line of every token
    ASSERT_EQ(e.lines().size(), a.lines().size());
    for (size_t l = 0; l < e.lines().size(); ++l) {
      EXPECT_EQ(e.lines()[l].token_indices, a.lines()[l].token_indices);
      EXPECT_EQ(e.lines()[l].box, a.lines()[l].box);
    }
    EXPECT_EQ(e.annotations(), a.annotations());
  }
}

void ExpectMatchesOracleAt(const std::vector<Document>& docs,
                           const KeyPhraseConfig& phrases,
                           const std::vector<FieldPair>& pairs,
                           const FieldSwapOptions& options,
                           const SwapStats& expected_stats,
                           const std::vector<Document>& expected,
                           const std::string& context) {
  for (int threads : {1, 4}) {
    const int saved = par::Threads();
    par::SetThreads(threads);
    SwapStats stats;
    std::vector<Document> actual =
        GenerateSyntheticDocuments(docs, phrases, pairs, options, &stats);
    par::SetThreads(saved);
    const std::string where = context + " threads=" + std::to_string(threads);
    EXPECT_EQ(expected_stats.generated, stats.generated) << where;
    EXPECT_EQ(expected_stats.discarded_unchanged, stats.discarded_unchanged)
        << where;
    EXPECT_EQ(expected_stats.pairs_with_match, stats.pairs_with_match)
        << where;
    ExpectSameDocuments(expected, actual, where);
  }
}

/// Runs the reference once uncapped, then checks the production generator
/// against it at every cap in `caps`, at 1 and 4 threads. Returns the
/// uncapped synthetic count.
size_t ExpectMatchesOracle(const std::vector<Document>& docs,
                         const KeyPhraseConfig& phrases,
                         const std::vector<FieldPair>& pairs,
                         FieldSwapOptions options,
                         const std::vector<int>& caps,
                         const std::string& context) {
  options.max_synthetics = 0;
  SwapStats expected_stats;
  const std::vector<Document> uncapped = oracle::GenerateSyntheticDocuments(
      docs, phrases, pairs, options, &expected_stats);
  for (int cap : caps) {
    options.max_synthetics = cap;
    ExpectMatchesOracleAt(docs, phrases, pairs, options, expected_stats,
                          oracle::Subsample(uncapped, options),
                          context + " cap=" + std::to_string(cap));
  }
  return uncapped.size();
}

TEST(AugmentationOracleTest, MatchesCopyPerSwapGeneratorOnEveryDomain) {
  size_t most_uncapped = 0;
  for (const char* name : {"fara", "fcc_forms", "brokerage_statements",
                           "earnings", "loan_payments", "invoices"}) {
    DomainSpec spec = SpecByName(name);
    std::vector<Document> docs = GenerateCorpus(spec, 8, 41, "oracle");
    HumanExpertConfig expert = MakeHumanExpertConfig(spec);
    const std::vector<std::pair<std::string, std::vector<FieldPair>>>
        pair_sets = {
            {"expert", expert.pairs},
            {"f2f", BuildFieldPairs(spec.Schema(),
                                    MappingStrategy::kFieldToField,
                                    expert.phrases)},
            {"t2t", BuildFieldPairs(spec.Schema(),
                                    MappingStrategy::kTypeToType,
                                    expert.phrases)},
        };
    for (const auto& [label, pairs] : pair_sets) {
      most_uncapped = std::max(
          most_uncapped,
          ExpectMatchesOracle(docs, expert.phrases, pairs, FieldSwapOptions{},
                              {0, 250}, std::string(name) + "/" + label));
    }
  }
  EXPECT_GT(most_uncapped, 250u) << "the 250 cap must bite somewhere";
}

TEST(AugmentationOracleTest, MatchesOnColonsOverlapsAndUnchangedSwaps) {
  // PayRowDoc covers a colon-styled label ("Pay:"), overlapping source
  // phrases ("Base Salary" over "Base"), a same-text swap that is
  // discarded, and a sibling field the consistency filter drops.
  std::vector<Document> docs = {PayRowDoc()};
  KeyPhraseConfig config = PayRowConfig();
  config["net_pay"].push_back(MakePhrase({"Take", "Home", "Pay:"}));
  config["net_pay"].push_back(MakePhrase({"net", "pay"}));
  config["current.bonus"].push_back(MakePhrase({"Base", "Salary"}));
  std::vector<FieldPair> pairs;
  for (const auto& [source, unused_source] : config) {
    for (const auto& [target, unused_target] : config) {
      pairs.push_back(FieldPair{source, target});
    }
  }

  // Swaps whose token count is unchanged overall while individual matches
  // grow and shrink: "X" (1 token) and "A X A" (3 tokens) both become
  // "X A", so the text is the same as the original even though each
  // replaced range changed. The unchanged rule is about the whole text.
  Document shifty("s", "test", 612, 792);
  for (const char* text : {"X", "A", "X", "A", "$1.00"}) {
    const double x = 40.0 * static_cast<double>(shifty.num_tokens());
    shifty.AddToken(text, BBox{x, 0, x + 30, 10});
  }
  DetectAndAssignLines(shifty);
  shifty.AddAnnotation(EntitySpan{"amount", 4, 1});
  docs.push_back(shifty);
  config["amount"] = {MakePhrase({"A", "X", "A"}), MakePhrase({"X"})};
  config["other"] = {MakePhrase({"X", "A"}), MakePhrase({"x", "a"})};
  pairs.push_back(FieldPair{"amount", "other"});
  pairs.push_back(FieldPair{"amount", "amount"});

  for (bool discard : {true, false}) {
    for (bool drop : {true, false}) {
      FieldSwapOptions options;
      options.discard_unchanged = discard;
      options.drop_affected_fields = drop;
      ExpectMatchesOracle(docs, config, pairs, options, {0, 3},
                          "discard=" + std::to_string(discard) +
                              " drop=" + std::to_string(drop));
    }
  }
}

}  // namespace
}  // namespace fieldswap
