#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <set>

#include "model/annotators.h"
#include "synth/builder.h"
#include "synth/domains.h"
#include "synth/generator.h"
#include "synth/values.h"
#include "util/strings.h"

namespace fieldswap {
namespace {

// ---- Value samplers -------------------------------------------------------

TEST(ValuesTest, MoneyFormats) {
  ValueSampler sampler{Rng(1)};
  for (int i = 0; i < 50; ++i) {
    auto dollar = sampler.Money(10, 20000, MoneyStyle::kDollarSign);
    ASSERT_EQ(dollar.size(), 1u);
    EXPECT_EQ(dollar[0][0], '$');
    EXPECT_TRUE(IsMoneyToken(dollar[0])) << dollar[0];
    auto plain = sampler.Money(10, 20000, MoneyStyle::kPlain);
    EXPECT_TRUE(IsMoneyToken(plain[0])) << plain[0];
  }
}

TEST(ValuesTest, FormatMoneyKnownValues) {
  EXPECT_EQ(FormatMoney(3308.62), "3,308.62");
  EXPECT_EQ(FormatMoney(5.0), "5.00");
  EXPECT_EQ(FormatMoney(1234567.891), "1,234,567.89");
}

TEST(ValuesTest, DateFormats) {
  ValueSampler sampler{Rng(2)};
  auto slashed = sampler.Date(DateStyle::kSlashed);
  ASSERT_EQ(slashed.size(), 1u);
  EXPECT_TRUE(IsDateToken(slashed[0])) << slashed[0];
  auto iso = sampler.Date(DateStyle::kDashedIso);
  EXPECT_TRUE(IsDateToken(iso[0])) << iso[0];
  auto month = sampler.Date(DateStyle::kMonthName);
  EXPECT_EQ(month.size(), 3u);
}

TEST(ValuesTest, NumberDigits) {
  ValueSampler sampler{Rng(3)};
  for (int i = 0; i < 30; ++i) {
    auto number = sampler.Number(4, 8);
    ASSERT_EQ(number.size(), 1u);
    EXPECT_GE(number[0].size(), 4u);
    EXPECT_LE(number[0].size(), 8u);
    EXPECT_TRUE(IsAllDigits(number[0]));
  }
}

TEST(ValuesTest, AddressEndsWithStateZip) {
  ValueSampler sampler{Rng(4)};
  auto address = sampler.Address();
  ASSERT_GE(address.size(), 5u);
  EXPECT_EQ(address[address.size() - 2].size(), 2u);  // state
  EXPECT_EQ(address.back().size(), 5u);               // zip
  EXPECT_TRUE(IsZipToken(address.back()));
}

TEST(ValuesTest, PersonAndCompanyNames) {
  ValueSampler sampler{Rng(5)};
  EXPECT_EQ(sampler.PersonName().size(), 2u);
  auto company = sampler.CompanyName();
  EXPECT_GE(company.size(), 2u);
  EXPECT_LE(company.size(), 3u);
}

TEST(ValuesTest, CallSignShape) {
  ValueSampler sampler{Rng(6)};
  for (int i = 0; i < 20; ++i) {
    auto sign = sampler.CallSign();
    ASSERT_EQ(sign.size(), 1u);
    EXPECT_TRUE(sign[0][0] == 'K' || sign[0][0] == 'W');
    EXPECT_GE(sign[0].size(), 4u);
  }
}

TEST(ValuesTest, DeterministicInSeed) {
  ValueSampler a{Rng(7)}, b{Rng(7)};
  EXPECT_EQ(a.Address(), b.Address());
  EXPECT_EQ(a.PersonName(), b.PersonName());
}

// ---- Domain specs (Table I / II fidelity) ----------------------------------

// Names stay outside ExpectedDomain: gtest prints a parameter without a
// PrintTo as its raw bytes and CTest puts that dump into the test name, so a
// pointer there would give the tests a different name on every build.
constexpr const char* kDomainNames[] = {"fara", "fcc_forms",
                                        "brokerage_statements", "earnings",
                                        "loan_payments"};

struct ExpectedDomain {
  std::size_t name_index;  // into kDomainNames
  int num_fields;
  int train_pool;
  int test_docs;
  // Table II: address, date, money, number, string.
  int by_type[5];

  const char* name() const { return kDomainNames[name_index]; }
};

constexpr ExpectedDomain kExpected[] = {
    {0, 6, 200, 300, {0, 1, 0, 1, 4}},
    {1, 13, 200, 300, {1, 4, 2, 1, 5}},
    {2, 18, 294, 186, {2, 4, 5, 0, 7}},
    {3, 23, 2000, 1847, {2, 3, 15, 0, 3}},
    {4, 35, 2000, 815, {3, 5, 20, 0, 7}},
};

class DomainSpecTest : public ::testing::TestWithParam<ExpectedDomain> {};

TEST_P(DomainSpecTest, MatchesPaperTables) {
  const ExpectedDomain& expected = GetParam();
  DomainSpec spec = SpecByName(expected.name());
  DomainSchema schema = spec.Schema();
  EXPECT_EQ(static_cast<int>(schema.num_fields()), expected.num_fields);
  EXPECT_EQ(spec.train_pool_size, expected.train_pool);
  EXPECT_EQ(spec.test_size, expected.test_docs);
  auto counts = schema.CountByType();
  EXPECT_EQ(static_cast<int>(counts[FieldType::kAddress]), expected.by_type[0]);
  EXPECT_EQ(static_cast<int>(counts[FieldType::kDate]), expected.by_type[1]);
  EXPECT_EQ(static_cast<int>(counts[FieldType::kMoney]), expected.by_type[2]);
  EXPECT_EQ(static_cast<int>(counts[FieldType::kNumber]), expected.by_type[3]);
  EXPECT_EQ(static_cast<int>(counts[FieldType::kString]), expected.by_type[4]);
}

TEST_P(DomainSpecTest, SectionsReferenceDeclaredFields) {
  DomainSpec spec = SpecByName(GetParam().name());
  for (const Section& section : spec.sections) {
    std::vector<std::string> referenced;
    switch (section.kind) {
      case Section::Kind::kHeader:
        referenced = section.header.fields;
        break;
      case Section::Kind::kKV:
        referenced = section.kv.fields;
        break;
      case Section::Kind::kTable:
        for (const std::string& prefix : section.table.column_prefixes) {
          for (const std::string& suffix : section.table.row_suffixes) {
            referenced.push_back(prefix + "." + suffix);
          }
        }
        break;
    }
    for (const std::string& field : referenced) {
      EXPECT_NE(spec.Find(field), nullptr) << field;
    }
  }
}

TEST_P(DomainSpecTest, EveryFieldIsRenderedBySomeSection) {
  DomainSpec spec = SpecByName(GetParam().name());
  std::set<std::string> rendered;
  for (const Section& section : spec.sections) {
    switch (section.kind) {
      case Section::Kind::kHeader:
        rendered.insert(section.header.fields.begin(),
                        section.header.fields.end());
        break;
      case Section::Kind::kKV:
        rendered.insert(section.kv.fields.begin(), section.kv.fields.end());
        break;
      case Section::Kind::kTable:
        for (const std::string& prefix : section.table.column_prefixes) {
          for (const std::string& suffix : section.table.row_suffixes) {
            rendered.insert(prefix + "." + suffix);
          }
        }
        break;
    }
  }
  for (const FieldDef& def : spec.fields) {
    EXPECT_TRUE(rendered.count(def.spec.name)) << def.spec.name;
  }
}

TEST_P(DomainSpecTest, NoPhraseFieldsHaveEmptySwapGroup) {
  DomainSpec spec = SpecByName(GetParam().name());
  for (const FieldDef& def : spec.fields) {
    if (def.phrases.empty()) {
      EXPECT_TRUE(def.swap_group.empty()) << def.spec.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDomains, DomainSpecTest,
                         ::testing::ValuesIn(kExpected),
                         [](const auto& info) {
                           return std::string(info.param.name());
                         });

TEST(DomainsTest, AllEvalDomainsOrder) {
  auto domains = AllEvalDomains();
  ASSERT_EQ(domains.size(), 5u);
  EXPECT_EQ(domains[0].name, "fara");
  EXPECT_EQ(domains[4].name, "loan_payments");
}

TEST(DomainsTest, TableFieldsShareRowPhrases) {
  DomainSpec spec = EarningsSpec();
  const FieldDef* current = spec.Find("current.bonus");
  const FieldDef* ytd = spec.Find("year_to_date.bonus");
  ASSERT_NE(current, nullptr);
  ASSERT_NE(ytd, nullptr);
  // The contradictory-pair phenomenon of Sec. II-B requires identical
  // phrase vocabularies across the two columns.
  EXPECT_EQ(current->phrases, ytd->phrases);
  EXPECT_NE(current->swap_group, ytd->swap_group);
}

TEST(DomainsTest, RareFieldFrequenciesMatchTable4) {
  DomainSpec spec = EarningsSpec();
  EXPECT_NEAR(spec.Find("current.sales_pay")->spec.frequency, 0.0285, 1e-9);
  EXPECT_NEAR(spec.Find("year_to_date.sales_pay")->spec.frequency, 0.039, 1e-9);
  EXPECT_NEAR(spec.Find("current.pto_pay")->spec.frequency, 0.095, 1e-9);
  EXPECT_NEAR(spec.Find("year_to_date.pto_pay")->spec.frequency, 0.159, 1e-9);
}

// ---- Template styles ------------------------------------------------------

TEST(TemplateStyleTest, DeterministicPerId) {
  DomainSpec spec = EarningsSpec();
  TemplateStyle a = MakeTemplateStyle(spec, 3);
  TemplateStyle b = MakeTemplateStyle(spec, 3);
  EXPECT_EQ(a.font_size, b.font_size);
  EXPECT_EQ(a.phrase_choice, b.phrase_choice);
  EXPECT_EQ(a.kv_shuffle_salt, b.kv_shuffle_salt);
}

TEST(TemplateStyleTest, TemplatesDiffer) {
  DomainSpec spec = EarningsSpec();
  std::set<uint64_t> salts;
  for (int t = 0; t < spec.num_templates; ++t) {
    salts.insert(MakeTemplateStyle(spec, t).kv_shuffle_salt);
  }
  EXPECT_EQ(static_cast<int>(salts.size()), spec.num_templates);
}

TEST(TemplateStyleTest, PhraseForFieldComesFromVocabulary) {
  DomainSpec spec = EarningsSpec();
  for (int t = 0; t < spec.num_templates; ++t) {
    TemplateStyle style = MakeTemplateStyle(spec, t);
    std::string phrase = TemplatePhraseFor(spec, style, "current.salary");
    const auto& vocab = spec.Find("current.salary")->phrases;
    EXPECT_NE(std::find(vocab.begin(), vocab.end(), phrase), vocab.end())
        << phrase;
  }
  TemplateStyle style = MakeTemplateStyle(spec, 0);
  EXPECT_EQ(TemplatePhraseFor(spec, style, "employee_name"), "");
  EXPECT_EQ(TemplatePhraseFor(spec, style, "unknown_field"), "");
}

// ---- Builder --------------------------------------------------------------

TEST(BuilderTest, EmitWordsPlacesLeftToRight) {
  TemplateStyle style;
  DocumentBuilder builder("b", "test", style);
  EmitResult result = builder.EmitWords({"Amount", "Due"}, 100, 50);
  EXPECT_EQ(result.first_token, 0);
  EXPECT_EQ(result.num_tokens, 2);
  const Document& doc = builder.doc();
  EXPECT_LT(doc.token(0).box.x_max, doc.token(1).box.x_min);
  EXPECT_DOUBLE_EQ(doc.token(0).box.y_min, 50);
  EXPECT_GT(result.right_x, 100);
}

TEST(BuilderTest, EmitFieldAnnotates) {
  TemplateStyle style;
  DocumentBuilder builder("b", "test", style);
  builder.EmitField("total", {"$5.00"}, 10, 10);
  ASSERT_EQ(builder.doc().annotations().size(), 1u);
  EXPECT_EQ(builder.doc().annotations()[0].field, "total");
}

TEST(BuilderTest, FinishRunsLineDetection) {
  TemplateStyle style;
  DocumentBuilder builder("b", "test", style);
  builder.EmitWords({"Pay", "Date"}, 10, 10);
  builder.EmitWords({"Total"}, 10, 60);
  Document doc = builder.Finish();
  EXPECT_EQ(doc.lines().size(), 2u);
  EXPECT_GE(doc.token(0).line, 0);
}

// ---- Generator ------------------------------------------------------------

TEST(GeneratorTest, DeterministicInSeed) {
  DomainSpec spec = FccFormsSpec();
  Document a = GenerateDocument(spec, "x", 2, Rng(77));
  Document b = GenerateDocument(spec, "x", 2, Rng(77));
  EXPECT_TRUE(a.SameTokenTexts(b));
  EXPECT_EQ(a.annotations(), b.annotations());
}

TEST(GeneratorTest, AnnotationsAreValidSpans) {
  for (const DomainSpec& spec : AllEvalDomains()) {
    Document doc = GenerateDocument(spec, "x", 0, Rng(5));
    for (const EntitySpan& span : doc.annotations()) {
      EXPECT_GE(span.first_token, 0);
      EXPECT_LE(span.end_token(), doc.num_tokens());
      EXPECT_NE(spec.Find(span.field), nullptr) << span.field;
    }
  }
}

TEST(GeneratorTest, AnnotationsHaveDetectedLines) {
  Document doc = GenerateDocument(EarningsSpec(), "x", 1, Rng(6));
  EXPECT_FALSE(doc.lines().empty());
  for (const Token& tok : doc.tokens()) EXPECT_GE(tok.line, 0);
}

TEST(GeneratorTest, FrequenciesApproximatelyRespected) {
  DomainSpec spec = EarningsSpec();
  auto docs = GenerateCorpus(spec, 600, 99, "f");
  std::map<std::string, int> counts;
  for (const Document& doc : docs) {
    for (const EntitySpan& span : doc.annotations()) ++counts[span.field];
  }
  // pay_date at 0.95 should be nearly everywhere; sales_pay rare.
  EXPECT_GT(counts["pay_date"], 500);
  EXPECT_LT(counts["current.sales_pay"], 50);
  EXPECT_GT(counts["current.salary"], 500);
}

TEST(GeneratorTest, AtMostOneInstancePerField) {
  Document doc = GenerateDocument(LoanPaymentsSpec(), "x", 3, Rng(8));
  std::map<std::string, int> counts;
  for (const EntitySpan& span : doc.annotations()) ++counts[span.field];
  for (const auto& [field, count] : counts) {
    EXPECT_EQ(count, 1) << field;
  }
}

TEST(GeneratorTest, KeyPhraseAppearsNearLabeledField) {
  DomainSpec spec = EarningsSpec();
  // Find a doc with current.salary present; its template's phrase must
  // occur in the document.
  auto docs = GenerateCorpus(spec, 20, 3, "k");
  int checked = 0;
  for (const Document& doc : docs) {
    if (!doc.HasField("current.salary")) continue;
    bool found = false;
    for (const std::string& phrase : spec.Find("current.salary")->phrases) {
      if (!doc.FindPhrase(SplitWhitespace(phrase)).empty()) found = true;
    }
    EXPECT_TRUE(found) << doc.id();
    ++checked;
  }
  EXPECT_GT(checked, 5);
}

TEST(GeneratorTest, TemplatesProduceDistinctLayouts) {
  DomainSpec spec = EarningsSpec();
  Document a = GenerateDocument(spec, "a", 0, Rng(1));
  Document b = GenerateDocument(spec, "b", 1, Rng(1));
  EXPECT_FALSE(a.SameTokenTexts(b));
}

TEST(GeneratorTest, RowOrderVariesAcrossTemplates) {
  DomainSpec spec = EarningsSpec();
  // Collect the y-order of salary vs gross_pay rows across templates; at
  // least two templates must disagree.
  std::set<bool> orders;
  for (int t = 0; t < spec.num_templates; ++t) {
    for (uint64_t seed = 0; seed < 10; ++seed) {
      Document doc = GenerateDocument(spec, "x", t, Rng(seed));
      auto salary = doc.AnnotationsFor("current.salary");
      auto gross = doc.AnnotationsFor("current.gross_pay");
      if (salary.empty() || gross.empty()) continue;
      double y_salary = doc.token(salary[0].first_token).box.CenterY();
      double y_gross = doc.token(gross[0].first_token).box.CenterY();
      orders.insert(y_salary < y_gross);
      break;
    }
  }
  EXPECT_EQ(orders.size(), 2u) << "row order should differ across templates";
}

TEST(GeneratorTest, CorpusIdsAndSize) {
  auto docs = GenerateCorpus(FaraSpec(), 7, 1, "fara-test");
  ASSERT_EQ(docs.size(), 7u);
  EXPECT_EQ(docs[0].id(), "fara-test-0");
  EXPECT_EQ(docs[6].id(), "fara-test-6");
}

TEST(GeneratorTest, ValueMagnitudesFollowFieldRanges) {
  DomainSpec spec = EarningsSpec();
  auto docs = GenerateCorpus(spec, 80, 21, "m");
  for (const Document& doc : docs) {
    for (const EntitySpan& span : doc.AnnotationsFor("year_to_date.salary")) {
      std::string text = doc.TextOf(span);
      // YTD salary range is [640, 84000]; spot-check it is > 500.
      std::string digits;
      for (char c : text) {
        if (c != '$' && c != ',') digits.push_back(c);
      }
      EXPECT_GT(ParseDouble(digits.c_str(), 0.0), 500.0) << text;
    }
  }
}

}  // namespace
}  // namespace fieldswap
