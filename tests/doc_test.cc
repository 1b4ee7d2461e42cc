#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "doc/bbox.h"
#include "doc/document.h"
#include "doc/schema.h"
#include "doc/serialize.h"
#include "ocr/line_detector.h"
#include "synth/domains.h"
#include "synth/generator.h"

namespace fieldswap {
namespace {

// ---- BBox -----------------------------------------------------------------

TEST(BBoxTest, Geometry) {
  BBox box{10, 20, 40, 30};
  EXPECT_DOUBLE_EQ(box.Width(), 30.0);
  EXPECT_DOUBLE_EQ(box.Height(), 10.0);
  EXPECT_DOUBLE_EQ(box.CenterX(), 25.0);
  EXPECT_DOUBLE_EQ(box.CenterY(), 25.0);
  EXPECT_DOUBLE_EQ(box.Area(), 300.0);
}

TEST(BBoxTest, ContainsAndIntersects) {
  BBox a{0, 0, 10, 10};
  BBox b{5, 5, 15, 15};
  BBox c{20, 20, 30, 30};
  EXPECT_TRUE(a.Contains(5, 5));
  EXPECT_FALSE(a.Contains(11, 5));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
}

TEST(BBoxTest, UnionCoversBoth) {
  BBox u = BBox{0, 0, 10, 10}.Union(BBox{5, -5, 20, 8});
  EXPECT_EQ(u, (BBox{0, -5, 20, 10}));
}

TEST(BBoxTest, VerticalOverlap) {
  BBox a{0, 0, 10, 10};
  EXPECT_DOUBLE_EQ(a.VerticalOverlap(BBox{50, 5, 60, 15}), 5.0);
  EXPECT_DOUBLE_EQ(a.VerticalOverlap(BBox{50, 20, 60, 30}), 0.0);
}

TEST(OffAxisDistanceTest, ZeroWhenAxisAligned) {
  // Same y: horizontally aligned -> 0, regardless of x distance.
  EXPECT_DOUBLE_EQ(OffAxisDistance(0, 5, 100, 5), 0.0);
  // Same x: vertically aligned -> 0.
  EXPECT_DOUBLE_EQ(OffAxisDistance(7, 0, 7, 300), 0.0);
}

TEST(OffAxisDistanceTest, GrowsWithDiagonalOffset) {
  EXPECT_DOUBLE_EQ(OffAxisDistance(0, 0, 3, 4), 12.0);
  EXPECT_LT(OffAxisDistance(0, 0, 1, 1), OffAxisDistance(0, 0, 10, 10));
}

TEST(OffAxisDistanceTest, Symmetric) {
  EXPECT_DOUBLE_EQ(OffAxisDistance(1, 2, 5, 9), OffAxisDistance(5, 9, 1, 2));
}

// ---- Schema ---------------------------------------------------------------

DomainSchema TestSchema() {
  return DomainSchema(
      "test", {FieldSpec{"total_due", FieldType::kMoney, 1.0},
               FieldSpec{"invoice_date", FieldType::kDate, 1.0},
               FieldSpec{"vendor", FieldType::kString, 0.5},
               FieldSpec{"tax", FieldType::kMoney, 0.8}});
}

TEST(SchemaTest, FieldTypeNamesRoundTrip) {
  for (FieldType type : kAllFieldTypes) {
    auto parsed = ParseFieldType(FieldTypeName(type));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, type);
  }
  EXPECT_FALSE(ParseFieldType("bogus").has_value());
}

TEST(SchemaTest, LookupAndIndex) {
  DomainSchema schema = TestSchema();
  EXPECT_EQ(schema.num_fields(), 4u);
  ASSERT_NE(schema.Find("tax"), nullptr);
  EXPECT_EQ(schema.Find("tax")->type, FieldType::kMoney);
  EXPECT_EQ(schema.Find("nope"), nullptr);
  EXPECT_TRUE(schema.Has("vendor"));
  EXPECT_EQ(schema.IndexOf("invoice_date"), 1);
  EXPECT_EQ(schema.IndexOf("nope"), -1);
}

TEST(SchemaTest, TypeOfUnknownDefaultsToString) {
  EXPECT_EQ(TestSchema().TypeOf("nope"), FieldType::kString);
}

TEST(SchemaTest, FieldsOfTypeAndCounts) {
  DomainSchema schema = TestSchema();
  EXPECT_EQ(schema.FieldsOfType(FieldType::kMoney),
            (std::vector<std::string>{"total_due", "tax"}));
  auto counts = schema.CountByType();
  EXPECT_EQ(counts[FieldType::kMoney], 2u);
  EXPECT_EQ(counts[FieldType::kDate], 1u);
  EXPECT_EQ(counts[FieldType::kAddress], 0u);
}

// ---- Document -------------------------------------------------------------

/// Two-line document:
///   "Amount Due: $42.00"      (y=0)
///   "Total 99"                 (y=20)
Document TwoLineDoc() {
  Document doc("d1", "test", 612, 792);
  doc.AddToken("Amount", BBox{0, 0, 40, 10});
  doc.AddToken("Due:", BBox{45, 0, 65, 10});
  doc.AddToken("$42.00", BBox{70, 0, 110, 10});
  doc.AddToken("Total", BBox{0, 20, 30, 30});
  doc.AddToken("99", BBox{35, 20, 45, 30});
  doc.set_lines({Line{{0, 1, 2}, BBox{0, 0, 110, 10}},
                 Line{{3, 4}, BBox{0, 20, 45, 30}}});
  doc.AddAnnotation(EntitySpan{"total_due", 2, 1});
  return doc;
}

TEST(DocumentTest, BasicAccessors) {
  Document doc = TwoLineDoc();
  EXPECT_EQ(doc.num_tokens(), 5);
  EXPECT_EQ(doc.token(2).text, "$42.00");
  EXPECT_EQ(doc.token(0).line, 0);
  EXPECT_EQ(doc.token(4).line, 1);
  EXPECT_EQ(doc.TextOfRange(0, 3), "Amount Due: $42.00");
  EXPECT_EQ(doc.TextOf(doc.annotations()[0]), "$42.00");
}

TEST(DocumentTest, BoxOfRangeUnions) {
  Document doc = TwoLineDoc();
  BBox box = doc.BoxOfRange(0, 3);
  EXPECT_DOUBLE_EQ(box.x_min, 0);
  EXPECT_DOUBLE_EQ(box.x_max, 110);
}

TEST(DocumentTest, AnnotationsForAndHasField) {
  Document doc = TwoLineDoc();
  EXPECT_TRUE(doc.HasField("total_due"));
  EXPECT_FALSE(doc.HasField("tax"));
  EXPECT_EQ(doc.AnnotationsFor("total_due").size(), 1u);
  EXPECT_TRUE(doc.AnnotationsFor("tax").empty());
}

TEST(DocumentTest, NeighborIndicesSortedByOffAxis) {
  Document doc = TwoLineDoc();
  // Anchor at the money token.
  std::vector<int> neighbors = doc.NeighborIndices(doc.token(2).box, 2, {2});
  ASSERT_EQ(neighbors.size(), 2u);
  // "Due:" and "Amount" share y with the anchor (off-axis 0); "Total"/"99"
  // are diagonal.
  EXPECT_TRUE(neighbors[0] == 0 || neighbors[0] == 1);
  EXPECT_TRUE(neighbors[1] == 0 || neighbors[1] == 1);
}

TEST(DocumentTest, NeighborIndicesExcludes) {
  Document doc = TwoLineDoc();
  std::vector<int> neighbors =
      doc.NeighborIndices(doc.token(2).box, 5, {0, 1, 2});
  EXPECT_EQ(neighbors.size(), 2u);
  for (int n : neighbors) EXPECT_GE(n, 3);
}

TEST(DocumentTest, FindPhraseMatchesCaseInsensitive) {
  Document doc = TwoLineDoc();
  auto matches = doc.FindPhrase({"amount", "due"});
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].first_token, 0);
  EXPECT_EQ(matches[0].num_tokens, 2);
  EXPECT_EQ(matches[0].line, 0);
}

TEST(DocumentTest, FindPhraseToleratesPunctuation) {
  Document doc = TwoLineDoc();
  // Token is "Due:"; phrase word is "Due".
  EXPECT_EQ(doc.FindPhrase({"Amount", "Due"}).size(), 1u);
}

TEST(DocumentTest, FindPhraseRespectsLineBoundary) {
  Document doc = TwoLineDoc();
  // "$42.00 Total" spans two lines; must not match.
  EXPECT_TRUE(doc.FindPhrase({"$42.00", "Total"}).empty());
}

TEST(DocumentTest, FindPhraseNoMatch) {
  Document doc = TwoLineDoc();
  EXPECT_TRUE(doc.FindPhrase({"Subtotal"}).empty());
  EXPECT_TRUE(doc.FindPhrase({}).empty());
}

TEST(DocumentTest, ReplaceSameLengthKeepsAnnotations) {
  Document doc = TwoLineDoc();
  doc.ReplaceTokenRange(0, 2, {"Balance", "Owed"});
  EXPECT_EQ(doc.num_tokens(), 5);
  EXPECT_EQ(doc.token(0).text, "Balance");
  EXPECT_EQ(doc.token(1).text, "Owed");
  ASSERT_EQ(doc.annotations().size(), 1u);
  EXPECT_EQ(doc.annotations()[0].first_token, 2);
}

TEST(DocumentTest, ReplaceShorterShiftsAnnotations) {
  Document doc = TwoLineDoc();
  doc.ReplaceTokenRange(0, 2, {"Total"});
  EXPECT_EQ(doc.num_tokens(), 4);
  ASSERT_EQ(doc.annotations().size(), 1u);
  EXPECT_EQ(doc.annotations()[0].first_token, 1);
  EXPECT_EQ(doc.TextOf(doc.annotations()[0]), "$42.00");
}

TEST(DocumentTest, ReplaceLongerShiftsAnnotations) {
  Document doc = TwoLineDoc();
  doc.ReplaceTokenRange(0, 2, {"Total", "Amount", "Payable"});
  EXPECT_EQ(doc.num_tokens(), 6);
  ASSERT_EQ(doc.annotations().size(), 1u);
  EXPECT_EQ(doc.annotations()[0].first_token, 3);
  EXPECT_EQ(doc.TextOf(doc.annotations()[0]), "$42.00");
}

TEST(DocumentTest, ReplaceKeepsTotalWidth) {
  Document doc = TwoLineDoc();
  BBox before = doc.BoxOfRange(0, 2);
  doc.ReplaceTokenRange(0, 2, {"Total", "Amount", "Payable"});
  BBox after = doc.BoxOfRange(0, 3);
  EXPECT_NEAR(after.x_min, before.x_min, 1e-9);
  EXPECT_NEAR(after.x_max, before.x_max, 2.0);
  EXPECT_DOUBLE_EQ(after.y_min, before.y_min);
}

TEST(DocumentTest, ReplaceUpdatesLineTokenLists) {
  Document doc = TwoLineDoc();
  doc.ReplaceTokenRange(0, 2, {"Total"});
  EXPECT_EQ(doc.lines()[0].token_indices, (std::vector<int>{0, 1}));
  EXPECT_EQ(doc.lines()[1].token_indices, (std::vector<int>{2, 3}));
  EXPECT_EQ(doc.token(0).line, 0);
}

TEST(DocumentTest, ReplaceDropsOverlappingAnnotation) {
  Document doc = TwoLineDoc();
  doc.ReplaceTokenRange(2, 1, {"void"});
  EXPECT_TRUE(doc.annotations().empty());
}

TEST(DocumentTest, SameTokenTexts) {
  Document a = TwoLineDoc();
  Document b = TwoLineDoc();
  EXPECT_TRUE(a.SameTokenTexts(b));
  b.mutable_tokens()[0].text = "Amounts";
  EXPECT_FALSE(a.SameTokenTexts(b));
  Document c = TwoLineDoc();
  c.ReplaceTokenRange(0, 1, {"Amount"});
  EXPECT_TRUE(a.SameTokenTexts(c)) << "same text, different boxes";
}

TEST(DocumentTest, ReplacePreservesPhraseFindability) {
  Document doc = TwoLineDoc();
  doc.ReplaceTokenRange(0, 2, {"Balance", "Owed"});
  EXPECT_EQ(doc.FindPhrase({"Balance", "Owed"}).size(), 1u);
  EXPECT_TRUE(doc.FindPhrase({"Amount", "Due"}).empty());
}

// ---- Serialization round-trip fuzz sweep ----------------------------------
//
// write -> read -> write must be byte-identical: the first serialization
// quantizes coordinates to the printed precision, so parsing it back and
// printing again reproduces the same bytes exactly. A drift here breaks the
// golden corpus checksums.

TEST(SerializeFuzzTest, GeneratedCorporaRoundTripByteIdentically) {
  const char* domains[] = {"fara", "fcc_forms", "brokerage_statements",
                           "earnings", "loan_payments"};
  for (const char* domain : domains) {
    DomainSpec spec = SpecByName(domain);
    for (uint64_t seed : {7ULL, 1234ULL, 0xfeedULL}) {
      for (const Document& doc : GenerateCorpus(spec, 4, seed, "fuzz")) {
        std::string json1 = DocumentToJson(doc);
        std::optional<Document> parsed = DocumentFromJson(json1);
        ASSERT_TRUE(parsed.has_value()) << domain << " seed " << seed;
        EXPECT_EQ(DocumentToJson(*parsed), json1)
            << domain << " seed " << seed << " doc " << doc.id();
        // Structure survives, not just bytes.
        EXPECT_TRUE(parsed->SameTokenTexts(doc));
        EXPECT_EQ(parsed->annotations(), doc.annotations());
        EXPECT_EQ(parsed->lines().size(), doc.lines().size());
      }
    }
  }
}

TEST(SerializeFuzzTest, JsonlCorpusSurvivesSaveLoadSave) {
  std::vector<Document> corpus =
      GenerateCorpus(SpecByName("earnings"), 6, 77, "fuzz");
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "fieldswap_fuzz_jsonl";
  std::filesystem::create_directories(dir);
  std::string path_a = (dir / "a.jsonl").string();
  std::string path_b = (dir / "b.jsonl").string();

  ASSERT_TRUE(SaveCorpusJsonl(path_a, corpus));
  std::optional<std::vector<Document>> loaded = LoadCorpusJsonl(path_a);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), corpus.size());
  ASSERT_TRUE(SaveCorpusJsonl(path_b, *loaded));

  std::ifstream a(path_a), b(path_b);
  std::string bytes_a((std::istreambuf_iterator<char>(a)),
                      std::istreambuf_iterator<char>());
  std::string bytes_b((std::istreambuf_iterator<char>(b)),
                      std::istreambuf_iterator<char>());
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(SerializeFuzzTest, HostileDocumentRoundTrips) {
  // Negative coordinates, quotes/backslashes/control chars in text, an
  // empty-text token, and a token far off the page.
  Document doc("fuzz \"quoted\"\\id", "t", 100, 100);
  doc.AddToken("says \"hi\"", BBox{-5.25, -3.5, 12.125, 4.75});
  doc.AddToken("back\\slash", BBox{0, 10, 8, 20});
  doc.AddToken("tab\there", BBox{0, 30, 8, 40});
  doc.AddToken("", BBox{50, 50, 50, 50});
  doc.AddToken("far", BBox{9000, 9000, 9010, 9010});
  DetectAndAssignLines(doc);
  doc.AddAnnotation(EntitySpan{"field", 1, 2});

  std::string json1 = DocumentToJson(doc);
  std::optional<Document> parsed = DocumentFromJson(json1);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(DocumentToJson(*parsed), json1);
  EXPECT_EQ(parsed->id(), doc.id());
  EXPECT_TRUE(parsed->SameTokenTexts(doc));
  EXPECT_EQ(parsed->annotations(), doc.annotations());
}

// ---- Readers reject impossible page geometry ---------------------------------
//
// Features divide by the page size and rank tokens by off-axis distance, so
// a zero-size page or an infinite coordinate would put inf/NaN into the
// model. Each case below once parsed without complaint.

std::string GeometryJson() {
  Document doc("geo", "t", 612, 792);
  doc.AddToken("Total", BBox{10, 20, 40, 30});
  doc.AddToken("$1.00", BBox{50, 20, 80, 30});
  DetectAndAssignLines(doc);
  return DocumentToJson(doc);
}

/// GeometryJson with the first `from` replaced by `to`; the parse error.
std::string JsonGeometryError(const std::string& from, const std::string& to) {
  std::string json = GeometryJson();
  const size_t at = json.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  json.replace(at, from.size(), to);
  std::string error;
  EXPECT_FALSE(DocumentFromJson(json, &error).has_value()) << json;
  return error;
}

TEST(DocumentGeometryTest, JsonAcceptsARealPage) {
  EXPECT_TRUE(DocumentFromJson(GeometryJson()).has_value());
}

TEST(DocumentGeometryTest, JsonRejectsZeroPageWidth) {
  EXPECT_NE(JsonGeometryError("\"width\":612.000", "\"width\":0")
                .find("page width must be finite and positive"),
            std::string::npos);
}

TEST(DocumentGeometryTest, JsonRejectsNegativePageHeight) {
  EXPECT_NE(JsonGeometryError("\"height\":792.000", "\"height\":-792")
                .find("page height must be finite and positive"),
            std::string::npos);
}

TEST(DocumentGeometryTest, JsonRejectsInfinitePageWidth) {
  // 1e400 overflows a double and parses as +inf.
  EXPECT_NE(JsonGeometryError("\"width\":612.000", "\"width\":1e400")
                .find("page width must be finite and positive"),
            std::string::npos);
}

TEST(DocumentGeometryTest, JsonRejectsInfiniteBoxCoordinate) {
  EXPECT_NE(JsonGeometryError("[50.000,", "[-1e400,")
                .find("token 1: box coordinates must be finite"),
            std::string::npos);
  EXPECT_NE(JsonGeometryError(",30.000]", ",1e400]")
                .find("token 0: box coordinates must be finite"),
            std::string::npos);
}

}  // namespace
}  // namespace fieldswap
