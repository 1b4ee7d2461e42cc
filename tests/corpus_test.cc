// Format drivers and corpus streaming (ISSUE 10; DESIGN.md "Format
// drivers and corpus streaming"): per-driver round-trip byte-identity,
// hostile-input rejection for the native container, cross-format checksum
// equivalence, registry identification, and reader-vs-vector bit-identity
// of the migrated train/eval paths across thread counts.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/perturbation.h"
#include "doc/corpus.h"
#include "doc/document.h"
#include "doc/formats/record_file.h"
#include "doc/serialize.h"
#include "eval/metrics.h"
#include "model/sequence_model.h"
#include "model/trainer.h"
#include "ocr/line_detector.h"
#include "par/parallel.h"
#include "synth/corpus_stream.h"
#include "synth/domains.h"
#include "synth/generator.h"

namespace fieldswap {
namespace {

namespace fs = std::filesystem;

// Every test writes under its own fresh directory so parallel ctest
// shards and leftover files cannot interact.
class CorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::RegisterSyntheticCorpusDriver();
    dir_ = fs::temp_directory_path() /
           ("fieldswap_corpus_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& leaf) const {
    return (dir_ / leaf).string();
  }

  fs::path dir_;
};

std::vector<std::string> CorpusJson(const doc::CorpusReader& reader) {
  std::vector<std::string> out;
  doc::ForEachDocument(reader, [&](const Document& doc, size_t) {
    out.push_back(DocumentToJson(doc));
  });
  return out;
}

std::vector<std::string> CorpusJson(const std::vector<Document>& docs) {
  std::vector<std::string> out;
  for (const Document& doc : docs) out.push_back(DocumentToJson(doc));
  return out;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void WriteAll(doc::CorpusWriter& writer, const std::vector<Document>& docs) {
  for (const Document& doc : docs) {
    ASSERT_TRUE(writer.Add(doc)) << writer.status().ToString();
  }
  ASSERT_TRUE(writer.Finish()) << writer.status().ToString();
}

SequenceModelConfig TinySeqConfig() {
  SequenceModelConfig config;
  config.d_model = 16;
  config.spatial_neighbors = 6;
  return config;
}

// Restores the ambient thread count even when an assertion fails mid-test.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) : saved_(par::Threads()) {
    par::SetThreads(n);
  }
  ~ScopedThreads() { par::SetThreads(saved_); }

 private:
  int saved_;
};

// ---- Per-driver round-trips across all five eval domains ------------------

// write -> read -> write must be byte-identical at the FILE level for each
// writable driver: the first write pins the encoding, the read proves the
// decode inverts it, and the second write proves no information was lost
// (raw f64 geometry for native, %.3f-quantized JSON for JSONL — the
// quantized values are fixed points of another round-trip).
TEST_F(CorpusTest, NativeRoundTripByteIdenticalPerDomain) {
  for (const DomainSpec& spec : AllEvalDomains()) {
    std::vector<Document> docs = GenerateCorpus(spec, 8, 41, "rt");
    const std::string first = Path(spec.name + "_1.fsc");
    const std::string second = Path(spec.name + "_2.fsc");
    {
      auto writer = doc::CreateCorpus(first, "native");
      ASSERT_NE(writer, nullptr);
      WriteAll(*writer, docs);
    }
    doc::CorpusStatus status;
    auto reader = doc::OpenCorpus(first, "native", &status);
    ASSERT_NE(reader, nullptr) << status.ToString();
    ASSERT_EQ(reader->size(), docs.size());
    EXPECT_EQ(CorpusJson(*reader), CorpusJson(docs)) << spec.name;
    {
      auto writer = doc::CreateCorpus(second, "native");
      ASSERT_NE(writer, nullptr);
      WriteAll(*writer, doc::ReadAllDocuments(*reader));
    }
    EXPECT_EQ(FileBytes(first), FileBytes(second)) << spec.name;
  }
}

TEST_F(CorpusTest, JsonlRoundTripByteIdenticalPerDomain) {
  for (const DomainSpec& spec : AllEvalDomains()) {
    std::vector<Document> docs = GenerateCorpus(spec, 8, 42, "rt");
    const std::string first = Path(spec.name + "_1.jsonl");
    const std::string second = Path(spec.name + "_2.jsonl");
    {
      auto writer = doc::CreateCorpus(first, "jsonl");
      ASSERT_NE(writer, nullptr);
      WriteAll(*writer, docs);
    }
    doc::CorpusStatus status;
    auto reader = doc::OpenCorpus(first, "jsonl", &status);
    ASSERT_NE(reader, nullptr) << status.ToString();
    ASSERT_EQ(reader->size(), docs.size());
    {
      auto writer = doc::CreateCorpus(second, "jsonl");
      ASSERT_NE(writer, nullptr);
      WriteAll(*writer, doc::ReadAllDocuments(*reader));
    }
    EXPECT_EQ(FileBytes(first), FileBytes(second)) << spec.name;
  }
}

// The lazy synthetic reader must be indistinguishable from the corpus
// GenerateCorpus materializes — same documents at every index, at any
// thread count (golden.json's checksums also pin this, but here the
// comparison is per-document and names the offender).
TEST_F(CorpusTest, SyntheticReaderMatchesGenerateCorpus) {
  for (const DomainSpec& spec : AllEvalDomains()) {
    std::vector<Document> eager = GenerateCorpus(spec, 17, 1234, "gen");
    auto lazy = synth::MakeSyntheticCorpusReader(spec, 17, 1234, "gen");
    ASSERT_EQ(lazy->size(), eager.size());
    EXPECT_EQ(CorpusJson(*lazy), CorpusJson(eager)) << spec.name;
  }
}

// Converting JSONL -> native -> JSONL must preserve the corpus checksum:
// JSON writes doubles quantized to %.3f, the native codec stores raw f64
// bits, and the checksum folds canonical JSON — so all representations of
// the same corpus agree.
TEST_F(CorpusTest, CrossFormatConversionPreservesChecksum) {
  std::vector<Document> docs = GenerateCorpus(SpecByName("earnings"),
                                              12, 7, "conv");
  const std::string jsonl1 = Path("a.jsonl");
  const std::string native = Path("b.fsc");
  const std::string jsonl2 = Path("c.jsonl");
  {
    auto writer = doc::CreateCorpus(jsonl1);
    ASSERT_NE(writer, nullptr);
    WriteAll(*writer, docs);
  }
  auto from_jsonl = doc::OpenCorpus(jsonl1);
  ASSERT_NE(from_jsonl, nullptr);
  {
    auto writer = doc::CreateCorpus(native);
    ASSERT_NE(writer, nullptr);
    WriteAll(*writer, doc::ReadAllDocuments(*from_jsonl));
  }
  auto from_native = doc::OpenCorpus(native);
  ASSERT_NE(from_native, nullptr);
  {
    auto writer = doc::CreateCorpus(jsonl2);
    ASSERT_NE(writer, nullptr);
    WriteAll(*writer, doc::ReadAllDocuments(*from_native));
  }
  auto back = doc::OpenCorpus(jsonl2);
  ASSERT_NE(back, nullptr);
  const uint64_t reference = doc::CorpusChecksum(*from_jsonl);
  EXPECT_EQ(doc::CorpusChecksum(*from_native), reference);
  EXPECT_EQ(doc::CorpusChecksum(*back), reference);
  EXPECT_EQ(FileBytes(jsonl1), FileBytes(jsonl2));
}

// ---- Hostile input: the native container rejects, never crashes -----------

TEST_F(CorpusTest, TruncatedNativeRejectedCleanly) {
  const std::string path = Path("corpus.fsc");
  {
    auto writer = doc::CreateCorpus(path, "native");
    ASSERT_NE(writer, nullptr);
    WriteAll(*writer,
             GenerateCorpus(SpecByName("earnings"), 4, 3, "t"));
  }
  const std::string full = FileBytes(path);
  ASSERT_GT(full.size(), doc::formats::kRecordHeaderSize);
  // Truncation at the header, mid-records, and just-shy-of-complete must
  // all fail at open with a message — not at some later Get.
  for (size_t keep : {size_t{0}, size_t{16}, size_t{63},
                      doc::formats::kRecordHeaderSize, full.size() / 2,
                      full.size() - 1}) {
    const std::string cut = Path("cut.fsc");
    WriteFile(cut, full.substr(0, keep));
    doc::CorpusStatus status;
    auto reader = doc::OpenCorpus(cut, "native", &status);
    EXPECT_EQ(reader, nullptr) << "kept " << keep << " bytes";
    EXPECT_FALSE(status.ok()) << "kept " << keep << " bytes";
  }
}

TEST_F(CorpusTest, BitFlippedNativeRejectedCleanly) {
  const std::string path = Path("corpus.fsc");
  {
    auto writer = doc::CreateCorpus(path, "native");
    ASSERT_NE(writer, nullptr);
    WriteAll(*writer,
             GenerateCorpus(SpecByName("earnings"), 4, 3, "t"));
  }
  const std::string full = FileBytes(path);
  // Flip one bit in the record region (past the header): the body
  // checksum catches it at open.
  for (size_t at : {doc::formats::kRecordHeaderSize + 5, full.size() / 2,
                    full.size() - 3}) {
    std::string bad = full;
    bad[at] = static_cast<char>(bad[at] ^ 0x20);
    const std::string flipped = Path("flipped.fsc");
    WriteFile(flipped, bad);
    doc::CorpusStatus status;
    auto reader = doc::OpenCorpus(flipped, "native", &status);
    EXPECT_EQ(reader, nullptr) << "flip at byte " << at;
    EXPECT_FALSE(status.ok()) << "flip at byte " << at;
  }
}

TEST_F(CorpusTest, DecodeDocumentBinaryRejectsHostileBytes) {
  Document doc = GenerateDocument(SpecByName("earnings"), "h", 0,
                                  Rng(9));
  std::string good;
  doc::EncodeDocumentBinary(doc, &good);
  Document out;
  ASSERT_TRUE(doc::DecodeDocumentBinary(good, &out));

  doc::CorpusStatus status;
  // Empty and every strict prefix: bounds checks must fire, not UB.
  EXPECT_FALSE(doc::DecodeDocumentBinary("", &out, &status));
  EXPECT_FALSE(status.ok());
  for (size_t keep = 1; keep < good.size(); keep += 7) {
    EXPECT_FALSE(doc::DecodeDocumentBinary(
        std::string_view(good.data(), keep), &out))
        << "prefix " << keep;
  }
  // Trailing garbage is corruption, not slack.
  EXPECT_FALSE(doc::DecodeDocumentBinary(good + "x", &out, &status));
  EXPECT_FALSE(status.ok());
  // A hostile count field (0xFFFFFFFF tokens) must be rejected against
  // the remaining byte budget instead of driving an allocation. The token
  // count sits after the two length-prefixed id/domain strings and the
  // two f64 page dimensions.
  std::string bad = good;
  size_t cursor = 4 + doc.id().size() + 4 + doc.domain().size() + 16;
  ASSERT_LE(cursor + 4, bad.size());
  bad[cursor] = '\xff';
  bad[cursor + 1] = '\xff';
  bad[cursor + 2] = '\xff';
  bad[cursor + 3] = '\xff';
  EXPECT_FALSE(doc::DecodeDocumentBinary(bad, &out, &status));
  EXPECT_FALSE(status.ok());
}

/// The binary decode of `doc`; the reason it was rejected ("" if accepted).
std::string BinaryGeometryError(const Document& doc) {
  std::string bytes;
  doc::EncodeDocumentBinary(doc, &bytes);
  Document out;
  doc::CorpusStatus status;
  if (doc::DecodeDocumentBinary(bytes, &out, &status)) return "";
  return status.ToString();
}

Document GeometryDoc(double width, double height, const BBox& box) {
  Document doc("geo", "t", width, height);
  doc.AddToken("Total", BBox{10, 20, 40, 30});
  doc.AddToken("$1.00", box);
  DetectAndAssignLines(doc);
  return doc;
}

TEST(DecodeGeometryTest, AcceptsARealPage) {
  EXPECT_EQ(BinaryGeometryError(GeometryDoc(612, 792, {50, 20, 80, 30})), "");
}

TEST(DecodeGeometryTest, RejectsZeroPageWidth) {
  EXPECT_EQ(BinaryGeometryError(GeometryDoc(0, 792, {50, 20, 80, 30})),
            "page width must be finite and positive");
}

TEST(DecodeGeometryTest, RejectsNaNPageHeight) {
  EXPECT_EQ(BinaryGeometryError(GeometryDoc(
                612, std::numeric_limits<double>::quiet_NaN(),
                {50, 20, 80, 30})),
            "page height must be finite and positive");
}

TEST(DecodeGeometryTest, RejectsInfiniteBoxCoordinate) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(BinaryGeometryError(GeometryDoc(612, 792, {50, 20, inf, 30})),
            "token 1: box coordinates must be finite");
}

TEST(DecodeGeometryTest, RejectsNaNBoxCoordinate) {
  EXPECT_EQ(BinaryGeometryError(GeometryDoc(
                612, 792,
                {std::numeric_limits<double>::quiet_NaN(), 20, 80, 30})),
            "token 1: box coordinates must be finite");
}

// ---- Registry: identification and actionable failure -----------------------

TEST_F(CorpusTest, RegistryIdentifiesByMagicRegardlessOfExtension) {
  std::vector<Document> docs =
      GenerateCorpus(SpecByName("earnings"), 3, 5, "id");
  const std::string native_odd = Path("corpus.bin");
  const std::string jsonl_odd = Path("corpus.txt");
  {
    auto writer = doc::CreateCorpus(native_odd, "native");
    ASSERT_NE(writer, nullptr);
    WriteAll(*writer, docs);
  }
  {
    auto writer = doc::CreateCorpus(jsonl_odd, "jsonl");
    ASSERT_NE(writer, nullptr);
    WriteAll(*writer, docs);
  }
  doc::CorpusStatus status;
  auto native_reader = doc::OpenCorpus(native_odd, "", &status);
  ASSERT_NE(native_reader, nullptr) << status.ToString();
  EXPECT_EQ(native_reader->format(), "native");
  auto jsonl_reader = doc::OpenCorpus(jsonl_odd, "", &status);
  ASSERT_NE(jsonl_reader, nullptr) << status.ToString();
  EXPECT_EQ(jsonl_reader->format(), "jsonl");
}

TEST_F(CorpusTest, UnidentifiableFileNamesTheKnownFormats) {
  const std::string path = Path("mystery.xyz");
  WriteFile(path, "certainly not a corpus\n");
  doc::CorpusStatus status;
  auto reader = doc::OpenCorpus(path, "", &status);
  EXPECT_EQ(reader, nullptr);
  EXPECT_NE(status.message.find("native"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message.find("jsonl"), std::string::npos)
      << status.ToString();
}

TEST_F(CorpusTest, UnknownFormatNameNamesTheKnownFormats) {
  doc::CorpusStatus status;
  auto reader = doc::OpenCorpus(Path("whatever.fsc"), "parquet", &status);
  EXPECT_EQ(reader, nullptr);
  EXPECT_NE(status.message.find("parquet"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message.find("native"), std::string::npos)
      << status.ToString();
  // Writing through a read-only driver is refused up front.
  auto writer = doc::CreateCorpus(Path("out.synth"), "synthetic", &status);
  EXPECT_EQ(writer, nullptr);
  EXPECT_FALSE(status.ok());
}

TEST_F(CorpusTest, ListFormatsCoversTheThreeDrivers) {
  std::vector<doc::FormatInfo> formats =
      doc::FormatDriverRegistry::Global().ListFormats();
  bool native = false, jsonl = false, synthetic = false;
  for (const doc::FormatInfo& info : formats) {
    if (info.name == "native") native = info.can_write;
    if (info.name == "jsonl") jsonl = info.can_write;
    if (info.name == "synthetic") synthetic = !info.can_write;
  }
  EXPECT_TRUE(native) << "native driver missing or read-only";
  EXPECT_TRUE(jsonl) << "jsonl driver missing or read-only";
  EXPECT_TRUE(synthetic) << "synthetic driver missing or writable";
}

// ---- JSONL failures carry the line number ----------------------------------

TEST_F(CorpusTest, LoadCorpusJsonlReportsFailingLine) {
  std::vector<Document> docs =
      GenerateCorpus(SpecByName("earnings"), 2, 5, "ln");
  const std::string path = Path("bad.jsonl");
  WriteFile(path, DocumentToJson(docs[0]) + "\n" + "{\"id\": \"broken\"\n" +
                      DocumentToJson(docs[1]) + "\n");
  doc::CorpusStatus status;
  std::optional<std::vector<Document>> loaded =
      LoadCorpusJsonl(path, &status);
  EXPECT_FALSE(loaded.has_value());
  EXPECT_EQ(status.line, 2) << status.ToString();
  EXPECT_FALSE(status.message.empty());

  // The streaming reader indexes lines at open but parses lazily, so the
  // same failure surfaces at Get(1) with the same line number.
  auto reader = doc::OpenCorpus(path, "jsonl", &status);
  ASSERT_NE(reader, nullptr) << status.ToString();
  ASSERT_EQ(reader->size(), 3u);
  Document out;
  EXPECT_TRUE(reader->Get(0, &out));
  doc::CorpusStatus get_status;
  EXPECT_FALSE(reader->Get(1, &out, &get_status));
  EXPECT_EQ(get_status.line, 2) << get_status.ToString();
}

// ---- Synthetic .synth specs ------------------------------------------------

TEST_F(CorpusTest, SyntheticSpecOpensAndStreams) {
  const std::string path = Path("spec.synth");
  WriteFile(path,
            "{\"fieldswap_synthetic\": 1, \"domain\": \"earnings\", "
            "\"count\": 9, \"seed\": 6, \"id_prefix\": \"sp\"}\n");
  doc::CorpusStatus status;
  auto reader = doc::OpenCorpus(path, "", &status);  // by magic
  ASSERT_NE(reader, nullptr) << status.ToString();
  EXPECT_EQ(reader->format(), "synthetic");
  ASSERT_EQ(reader->size(), 9u);
  EXPECT_EQ(CorpusJson(*reader),
            CorpusJson(GenerateCorpus(SpecByName("earnings"), 9, 6,
                                      "sp")));
}

TEST_F(CorpusTest, SyntheticSpecErrorsAreActionable) {
  const std::string unknown = Path("unknown.synth");
  WriteFile(unknown,
            "{\"fieldswap_synthetic\": 1, \"domain\": \"tax_forms\", "
            "\"count\": 3}\n");
  doc::CorpusStatus status;
  EXPECT_EQ(doc::OpenCorpus(unknown, "synthetic", &status), nullptr);
  // The error names the known domains so a typo is self-correcting.
  EXPECT_NE(status.message.find("earnings"), std::string::npos)
      << status.ToString();

  const std::string bad_count = Path("bad_count.synth");
  WriteFile(bad_count,
            "{\"fieldswap_synthetic\": 1, \"domain\": \"earnings\", "
            "\"count\": -4}\n");
  EXPECT_EQ(doc::OpenCorpus(bad_count, "synthetic", &status), nullptr);
  EXPECT_FALSE(status.ok());
}

// ---- Writer atomicity ------------------------------------------------------

TEST_F(CorpusTest, WritersLandAtomicallyViaTempAndRename) {
  std::vector<Document> docs =
      GenerateCorpus(SpecByName("earnings"), 3, 8, "at");
  for (const std::string format : {"native", "jsonl"}) {
    const std::string ext = format == std::string("native") ? ".fsc"
                                                            : ".jsonl";
    const std::string path = Path(std::string("atomic") + ext);
    {
      auto writer = doc::CreateCorpus(path, format);
      ASSERT_NE(writer, nullptr);
      for (const Document& doc : docs) ASSERT_TRUE(writer->Add(doc));
      // Before Finish, a concurrent reader must not see the final path.
      EXPECT_FALSE(fs::exists(path)) << format;
      ASSERT_TRUE(writer->Finish());
      EXPECT_TRUE(fs::exists(path)) << format;
    }
    // An abandoned writer (no Finish) leaves neither the final file nor
    // its temp sibling behind.
    const std::string abandoned = Path(std::string("abandoned") + ext);
    {
      auto writer = doc::CreateCorpus(abandoned, format);
      ASSERT_NE(writer, nullptr);
      ASSERT_TRUE(writer->Add(docs[0]));
    }
    EXPECT_FALSE(fs::exists(abandoned)) << format;
    EXPECT_TRUE(fs::is_empty(dir_) ||
                !fs::exists(abandoned + ".tmp")) << format;
  }
}

// ---- Record spans ----------------------------------------------------------

TEST_F(CorpusTest, NativeRecordSpansTileTheRecordRegion) {
  const std::string path = Path("spans.fsc");
  std::vector<Document> docs =
      GenerateCorpus(SpecByName("earnings"), 5, 2, "sp");
  {
    auto writer = doc::CreateCorpus(path, "native");
    ASSERT_NE(writer, nullptr);
    WriteAll(*writer, docs);
  }
  auto reader = doc::OpenCorpus(path);
  ASSERT_NE(reader, nullptr);
  uint64_t expected_offset = doc::formats::kRecordHeaderSize;
  for (size_t i = 0; i < reader->size(); ++i) {
    uint64_t offset = 0, bytes = 0;
    ASSERT_TRUE(reader->RecordSpan(i, &offset, &bytes)) << i;
    EXPECT_EQ(offset, expected_offset) << i;
    EXPECT_GT(bytes, 4u) << i;  // length prefix + payload
    expected_offset += bytes;
  }
  // Formats without file extents say so instead of inventing offsets.
  doc::VectorCorpusReader vec(std::move(docs));
  uint64_t offset = 0, bytes = 0;
  EXPECT_FALSE(vec.RecordSpan(0, &offset, &bytes));
}

// ---- Blocked iteration and slices ------------------------------------------

TEST_F(CorpusTest, BlockedIterationMatchesSerialAtAnyBlockSize) {
  std::vector<Document> docs =
      GenerateCorpus(SpecByName("earnings"), 13, 11, "blk");
  doc::VectorCorpusReaderView view(docs);
  const uint64_t reference = doc::CorpusChecksum(view, 1);
  for (size_t block : {size_t{2}, size_t{5}, size_t{13}, size_t{64}}) {
    EXPECT_EQ(doc::CorpusChecksum(view, block), reference)
        << "block " << block;
  }
  doc::CorpusSlice firstfive(view, 5);
  EXPECT_EQ(firstfive.size(), 5u);
  doc::CorpusSlice overlong(view, 99);
  EXPECT_EQ(overlong.size(), docs.size());
  std::vector<Document> head = doc::ReadAllDocuments(firstfive);
  ASSERT_EQ(head.size(), 5u);
  EXPECT_EQ(DocumentToJson(head[4]), DocumentToJson(docs[4]));
}

TEST_F(CorpusTest, ShardedChecksumBitIdenticalAcrossThreadCounts) {
  auto reader = synth::MakeSyntheticCorpusReader(
      SpecByName("earnings"), 40, 77, "thr");
  uint64_t serial = 0, pooled = 0;
  {
    ScopedThreads one(1);
    serial = doc::CorpusChecksum(*reader, 7);
  }
  {
    ScopedThreads eight(8);
    pooled = doc::CorpusChecksum(*reader, 7);
  }
  EXPECT_EQ(serial, pooled);
}

// ---- Reader-based train/eval == vector-based, across thread counts --------

TEST_F(CorpusTest, ReaderAndVectorTrainEvalBitIdentical) {
  const DomainSpec spec = SpecByName("earnings");
  std::vector<Document> train_docs = GenerateCorpus(spec, 12, 21, "tr");
  std::vector<Document> test_docs = GenerateCorpus(spec, 8, 22, "te");
  TrainOptions options;
  options.total_steps = 60;
  options.validate_every = 30;
  options.seed = 99;

  // Baseline: the legacy vector path, serial.
  SequenceLabelingModel vector_model(TinySeqConfig(), spec.Schema());
  TrainResult vector_result;
  EvalResult vector_eval;
  {
    ScopedThreads one(1);
    vector_result =
        TrainSequenceModel(vector_model, train_docs, {}, options);
    vector_eval = EvaluateModel(vector_model, test_docs);
  }

  // Candidate: the reader path (through a file, not just a view), pooled.
  const std::string path = Path("train.fsc");
  {
    auto writer = doc::CreateCorpus(path, "native");
    ASSERT_NE(writer, nullptr);
    WriteAll(*writer, train_docs);
  }
  auto train_reader = doc::OpenCorpus(path);
  ASSERT_NE(train_reader, nullptr);
  SequenceLabelingModel reader_model(TinySeqConfig(), spec.Schema());
  TrainResult reader_result;
  EvalResult reader_eval;
  {
    ScopedThreads eight(8);
    reader_result =
        TrainSequenceModel(reader_model, *train_reader, nullptr, options);
    doc::VectorCorpusReaderView test_view(test_docs);
    reader_eval = EvaluateModel(reader_model, test_view);
  }

  // Bit-identical, not approximately equal: same RNG stream, same
  // reduction order, same doubles.
  EXPECT_EQ(vector_result.final_loss, reader_result.final_loss);
  EXPECT_EQ(vector_result.best_validation_f1,
            reader_result.best_validation_f1);
  EXPECT_EQ(vector_result.steps, reader_result.steps);
  EXPECT_EQ(vector_eval.macro_f1, reader_eval.macro_f1);
  EXPECT_EQ(vector_eval.micro_f1, reader_eval.micro_f1);
  ASSERT_EQ(vector_eval.per_field.size(), reader_eval.per_field.size());
}

// ---- Streaming perturbation == vector perturbation -------------------------

TEST_F(CorpusTest, PerturbStreamMatchesVectorAtAnyBlockSize) {
  const DomainSpec spec = SpecByName("earnings");
  std::vector<Document> docs = GenerateCorpus(spec, 11, 31, "atk");
  attack::AttackSuite suite = attack::BuildAttackSuite(spec);
  ASSERT_FALSE(suite.empty());
  const attack::DocumentPerturbation& perturbation = *suite.front();
  std::vector<Document> expected =
      attack::PerturbCorpus(docs, perturbation, 0.5, 17);
  doc::VectorCorpusReaderView view(docs);
  for (size_t block : {size_t{3}, size_t{11}, size_t{256}}) {
    doc::VectorCorpusWriter out;
    uint64_t written =
        attack::PerturbCorpusStream(view, perturbation, 0.5, 17, out, block);
    EXPECT_EQ(written, docs.size()) << "block " << block;
    EXPECT_EQ(CorpusJson(out.docs()), CorpusJson(expected))
        << "block " << block;
  }
}

}  // namespace
}  // namespace fieldswap
