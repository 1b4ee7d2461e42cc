// Heap-allocation budgets of the hot paths, as a tier-1 contract.
//
// This binary replaces the global operator new with a counting one, so it
// is built on its own (a counting allocator in the main test binary would
// count every other suite too). Each test runs one hot path on a fixed
// seeded earnings corpus, at 1 and at 4 threads, and requires the most
// operator-new calls any single operation made to stay within the budget
// checked in at tools/alloc_budgets.txt. A change may lower a budget; one
// that raises a budget loosens this check and has to say so.
//
// The allocator also tracks live heap bytes (malloc_usable_size) and their
// peak, which pins the bounded-memory claim of corpus streaming without
// reading the process RSS.

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "doc/corpus.h"
#include "model/sequence_model.h"
#include "nn/autodiff.h"
#include "nn/optimizer.h"
#include "par/parallel.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "synth/corpus_stream.h"
#include "synth/domains.h"
#include "synth/generator.h"

namespace {

std::atomic<long> g_allocations{0};
std::atomic<long> g_live_bytes{0};
std::atomic<long> g_peak_live_bytes{0};

void* Track(void* p) {
  if (p == nullptr) return p;
  const long usable = static_cast<long>(malloc_usable_size(p));
  const long live =
      g_live_bytes.fetch_add(usable, std::memory_order_relaxed) + usable;
  long peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return Track(std::malloc(size == 0 ? 1 : size));
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      (std::max<std::size_t>(size, 1) + alignment - 1) / alignment * alignment;
  return Track(std::aligned_alloc(alignment, rounded));
}

// Out of line so that GCC, inlining an operator delete below, does not pair
// this free() with the builtin operator new and warn
// (-Wmismatched-new-delete).
[[gnu::noinline]] void Release(void* p) {
  g_live_bytes.fetch_sub(static_cast<long>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, align)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}

namespace fieldswap {
namespace {

/// Budgets from tools/alloc_budgets.txt: path name -> most allocations.
std::map<std::string, long> LoadBudgets() {
  const std::string path =
      std::string(FIELDSWAP_REPO_ROOT) + "/tools/alloc_budgets.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::map<std::string, long> budgets;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    long budget = -1;
    fields >> name >> budget;
    EXPECT_FALSE(fields.fail()) << "malformed budget line: " << line;
    budgets[name] = budget;
  }
  return budgets;
}

/// Allocations made by `op`, on every thread of the process.
long CountAllocations(const std::function<void()>& op) {
  const long before = g_allocations.load(std::memory_order_relaxed);
  op();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Most live heap bytes above the starting level while `op` runs.
long PeakLiveBytes(const std::function<void()>& op) {
  const long base = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_live_bytes.store(base, std::memory_order_relaxed);
  op();
  return g_peak_live_bytes.load(std::memory_order_relaxed) - base;
}

class AllocBudgetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    spec_ = new DomainSpec(SpecByName("earnings"));
    docs_ = new std::vector<Document>(GenerateCorpus(*spec_, 12, 601, "alloc"));
    budgets_ = new std::map<std::string, long>(LoadBudgets());
  }
  static void TearDownTestSuite() {
    delete budgets_;
    delete docs_;
    delete spec_;
  }

  /// The default serving configuration on the earnings schema.
  static SequenceLabelingModel Model() {
    return SequenceLabelingModel(SequenceModelConfig{}, spec_->Schema());
  }

  /// Runs `measure` (which returns the most allocations one operation made,
  /// after one-time initialization has been warmed) at 1 and 4 threads and
  /// checks it against the budget named `path`.
  static void ExpectWithinBudget(const std::string& path,
                                 const std::function<long()>& measure) {
    auto it = budgets_->find(path);
    ASSERT_NE(it, budgets_->end()) << "no budget for " << path;
    const int saved = par::Threads();
    for (int threads : {1, 4}) {
      par::SetThreads(threads);
      const long most = measure();
      std::printf("alloc budget %s threads=%d: %ld (budget %ld)\n",
                  path.c_str(), threads, most, it->second);
      EXPECT_LE(most, it->second)
          << path << " at " << threads << " threads made " << most
          << " allocations in one operation; tools/alloc_budgets.txt allows "
          << it->second;
    }
    par::SetThreads(saved);
  }

  static DomainSpec* spec_;
  static std::vector<Document>* docs_;
  static std::map<std::string, long>* budgets_;
};

DomainSpec* AllocBudgetTest::spec_ = nullptr;
std::vector<Document>* AllocBudgetTest::docs_ = nullptr;
std::map<std::string, long>* AllocBudgetTest::budgets_ = nullptr;

TEST_F(AllocBudgetTest, EncodeDoc) {
  const SequenceLabelingModel model = Model();
  ExpectWithinBudget("encode_doc", [&] {
    long most = 0;
    for (const Document& doc : *docs_) {
      most = std::max(most, CountAllocations([&] {
                        EncodedDoc encoded = model.EncodeDoc(doc);
                        ASSERT_EQ(encoded.num_tokens, doc.num_tokens());
                      }));
    }
    return most;
  });
}

TEST_F(AllocBudgetTest, Predict) {
  const SequenceLabelingModel model = Model();
  const size_t num_fields = model.schema().num_fields();
  // Warm: the first forward resolves the kernel backend.
  model.Predict(docs_->front());
  ExpectWithinBudget("predict", [&] {
    long most = 0;
    for (const Document& doc : *docs_) {
      most = std::max(most, CountAllocations([&] {
                        std::vector<EntitySpan> spans = model.Predict(doc);
                        ASSERT_LE(spans.size(), num_fields);
                      }));
    }
    return most;
  });
}

TEST_F(AllocBudgetTest, TrainStep) {
  SequenceLabelingModel model = Model();
  std::vector<EncodedDoc> pool;
  for (const Document& doc : *docs_) pool.push_back(model.EncodeDoc(doc));
  AdamOptimizer optimizer(model.Params());
  auto step = [&](const EncodedDoc& encoded) {
    Var loss = model.Loss(encoded);
    Backward(loss);
    optimizer.Step();
  };
  // Warm: the first step sizes every gradient buffer.
  step(pool.front());
  ExpectWithinBudget("train_step", [&] {
    long most = 0;
    for (const EncodedDoc& encoded : pool) {
      most = std::max(most, CountAllocations([&] { step(encoded); }));
    }
    return most;
  });
}

TEST_F(AllocBudgetTest, CacheHitThroughExtractionServer) {
  serve::ExtractionServer server(serve::MakeSnapshot(Model()));
  // Warm: the first pass fills both caches.
  for (const Document& doc : *docs_) {
    ASSERT_FALSE(server.Extract(doc).cache_hit);
  }
  ExpectWithinBudget("cache_hit", [&] {
    long most = 0;
    for (const Document& doc : *docs_) {
      most = std::max(most, CountAllocations([&] {
                        serve::ExtractResponse response = server.Extract(doc);
                        ASSERT_TRUE(response.cache_hit);
                      }));
    }
    return most;
  });
}

// Streaming holds one block of documents at a time, so the peak live heap
// while CorpusChecksum streams a native corpus of 4N documents stays within
// a small slack of the peak at N. A checksum that materialized the corpus
// (doc::ReadAllDocuments) would grow its peak with the corpus. Measured at
// one thread: with more, the peak depends on which documents of a block the
// pool happens to hold at once, and varies from run to run.
TEST_F(AllocBudgetTest, CorpusChecksumStreamsInBoundedMemory) {
  constexpr size_t kBlock = 16;
  constexpr int kDocs = 64;
  auto open_native = [&](int count) {
    const std::string path = ::testing::TempDir() + "/alloc_budget_stream_" +
                             std::to_string(count) + ".fsc";
    std::unique_ptr<doc::CorpusReader> source =
        synth::MakeSyntheticCorpusReader(*spec_, count, 602, "stream");
    std::unique_ptr<doc::CorpusWriter> writer =
        doc::CreateCorpus(path, "native");
    if (writer == nullptr) {
      ADD_FAILURE() << "cannot create " << path;
      return std::unique_ptr<doc::CorpusReader>();
    }
    doc::ForEachDocument(*source, [&](const Document& document, size_t) {
      EXPECT_TRUE(writer->Add(document));
    });
    EXPECT_TRUE(writer->Finish());
    doc::CorpusStatus status;
    std::unique_ptr<doc::CorpusReader> reader =
        doc::OpenCorpus(path, "native", &status);
    EXPECT_NE(reader, nullptr) << status.ToString();
    std::remove(path.c_str());  // the reader keeps the open file
    return reader;
  };
  std::unique_ptr<doc::CorpusReader> small = open_native(kDocs);
  std::unique_ptr<doc::CorpusReader> large = open_native(4 * kDocs);
  ASSERT_NE(small, nullptr);
  ASSERT_NE(large, nullptr);
  ASSERT_EQ(large->size(), static_cast<size_t>(4 * kDocs));

  const int saved = par::Threads();
  par::SetThreads(1);
  const long peak_small =
      PeakLiveBytes([&] { doc::CorpusChecksum(*small, kBlock); });
  const long peak_large =
      PeakLiveBytes([&] { doc::CorpusChecksum(*large, kBlock); });
  par::SetThreads(saved);
  std::printf("stream peak live bytes: %ld at %d docs, %ld at %d docs\n",
              peak_small, kDocs, peak_large, 4 * kDocs);
  EXPECT_GT(peak_small, 0);
  EXPECT_LE(peak_large, peak_small + peak_small / 4)
      << "streaming 4x the documents raised the peak live heap from "
      << peak_small << " to " << peak_large << " bytes";
}

}  // namespace
}  // namespace fieldswap
