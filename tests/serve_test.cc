// Tests for the batched extraction serving subsystem (src/serve): the
// bit-identity contract against direct Predict, admission-queue and
// deadline rejection paths, zero-downtime snapshot hot-swap under
// concurrent traffic, and the memoization caches.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/fieldswap_api.h"
#include "doc/document.h"
#include "model/sequence_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/parallel.h"
#include "serve/cache.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/tenant_server.h"
#include "synth/domains.h"
#include "synth/generator.h"
#include "util/hash.h"

namespace fieldswap {
namespace serve {
namespace {

std::vector<Document> TestCorpus(int count, uint64_t seed = 91) {
  return GenerateCorpus(InvoicesSpec(), count, seed, "serve-test");
}

/// An untrained (random-init, seeded) model: Predict is still a pure
/// deterministic function of the weights, which is all these tests need.
SequenceLabelingModel TestModel(uint64_t seed = 5) {
  SequenceModelConfig config;
  config.seed = seed;
  return SequenceLabelingModel(config, InvoicesSpec().Schema());
}

// ---- LruCache -------------------------------------------------------------

TEST(LruCacheTest, EvictsLeastRecentlyUsedAndTracksStats) {
  LruCache<int> cache(2);
  cache.Put(1, std::make_shared<const int>(10));
  cache.Put(2, std::make_shared<const int>(20));
  ASSERT_NE(cache.Get(1), nullptr);  // refreshes 1; 2 is now LRU
  cache.Put(3, std::make_shared<const int>(30));
  EXPECT_EQ(cache.Get(2), nullptr);
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), 10);
  ASSERT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_GE(cache.hits(), 3);
}

TEST(LruCacheTest, PutRefreshesExistingKey) {
  LruCache<int> cache(2);
  cache.Put(1, std::make_shared<const int>(10));
  cache.Put(2, std::make_shared<const int>(20));
  cache.Put(1, std::make_shared<const int>(11));  // refresh, not insert
  cache.Put(3, std::make_shared<const int>(30));  // evicts 2, not 1
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), 11);
  EXPECT_EQ(cache.Get(2), nullptr);
}

TEST(LruCacheTest, CapacityZeroDisablesCaching) {
  LruCache<int> cache(0);
  cache.Put(1, std::make_shared<const int>(10));
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

// ---- DocContentHash -------------------------------------------------------

TEST(DocContentHashTest, IgnoresIdButSeesContent) {
  std::vector<Document> docs = TestCorpus(2);
  Document renamed = docs[0];
  renamed.set_id("a-completely-different-id");
  EXPECT_EQ(DocContentHash(docs[0]), DocContentHash(renamed))
      << "the id never reaches the model, so it must not split the cache";
  EXPECT_NE(DocContentHash(docs[0]), DocContentHash(docs[1]));

  Document retext = docs[0];
  retext.mutable_tokens()[0].text += "x";
  EXPECT_NE(DocContentHash(docs[0]), DocContentHash(retext));

  Document relabeled = docs[0];
  ASSERT_FALSE(relabeled.mutable_annotations().empty());
  relabeled.mutable_annotations()[0].field += "x";
  EXPECT_NE(DocContentHash(docs[0]), DocContentHash(relabeled))
      << "annotations feed EncodedDoc.labels, so they are content";
}

/// DocContentHash as it was first written: every hashed field appended to
/// one buffer, then Fnv1a64 over the buffer. The streaming version must
/// give the same value.
uint64_t BufferedDocContentHash(const Document& doc) {
  auto append_u64 = [](std::string& buffer, uint64_t value) {
    char bytes[sizeof(value)];
    std::memcpy(bytes, &value, sizeof(value));
    buffer.append(bytes, sizeof(value));
  };
  auto append_double = [&](std::string& buffer, double value) {
    append_u64(buffer, std::bit_cast<uint64_t>(value));
  };
  std::string buffer;
  buffer += doc.domain();
  buffer += '\x1f';
  append_double(buffer, doc.width());
  append_double(buffer, doc.height());
  for (const Token& token : doc.tokens()) {
    buffer += token.text;
    buffer += '\x1f';
    append_double(buffer, token.box.x_min);
    append_double(buffer, token.box.y_min);
    append_double(buffer, token.box.x_max);
    append_double(buffer, token.box.y_max);
    append_u64(buffer, static_cast<uint64_t>(token.line));
  }
  for (const EntitySpan& span : doc.annotations()) {
    buffer += span.field;
    buffer += '\x1f';
    append_u64(buffer, static_cast<uint64_t>(span.first_token));
    append_u64(buffer, static_cast<uint64_t>(span.num_tokens));
  }
  return Fnv1a64(buffer);
}

TEST(DocContentHashTest, StreamingHashEqualsBufferedHash) {
  for (const char* name : {"fara", "fcc_forms", "brokerage_statements",
                           "earnings", "loan_payments", "invoices"}) {
    for (const Document& doc : GenerateCorpus(SpecByName(name), 12, 77, "h")) {
      EXPECT_EQ(DocContentHash(doc), BufferedDocContentHash(doc))
          << name << " " << doc.id();
    }
  }

  Document blank = TestCorpus(1)[0];
  for (Token& token : blank.mutable_tokens()) token.text.clear();
  blank.mutable_annotations().clear();
  EXPECT_EQ(DocContentHash(blank), BufferedDocContentHash(blank));

  Document labeled = TestCorpus(1)[0];
  labeled.AddAnnotation(EntitySpan{"extra.field", 0, 2});
  ASSERT_GT(labeled.annotations().size(), 1u);
  EXPECT_EQ(DocContentHash(labeled), BufferedDocContentHash(labeled));
}

TEST(Fnv1a64Test, UpdateStreamsOverPieces) {
  const std::string whole = "Base Salary\x1f$100.00";
  uint64_t h = kFnv1a64Seed;
  h = Fnv1a64Update(h, "Base ");
  h = Fnv1a64Update(h, "");
  h = Fnv1a64Update(h, "Salary\x1f$100.00");
  EXPECT_EQ(h, Fnv1a64(whole));
  EXPECT_EQ(Fnv1a64(""), kFnv1a64Seed);
}

// ---- Options / status -----------------------------------------------------

TEST(ServeOptionsTest, ValidateNamesTheBadField) {
  ServeOptions options;
  EXPECT_EQ(options.Validate(), "");
  options.max_batch = 0;
  EXPECT_NE(options.Validate().find("max_batch"), std::string::npos);
  options = {};
  options.queue_capacity = -1;
  EXPECT_NE(options.Validate().find("queue_capacity"), std::string::npos);
  options = {};
  options.default_deadline_ms = -2;
  EXPECT_NE(options.Validate().find("default_deadline_ms"),
            std::string::npos);
}

TEST(ServeStatusTest, Names) {
  EXPECT_STREQ(ServeStatusName(ServeStatus::kOk), "ok");
  EXPECT_STREQ(ServeStatusName(ServeStatus::kRejectedQueueFull),
               "rejected_queue_full");
  EXPECT_STREQ(ServeStatusName(ServeStatus::kRejectedDeadline),
               "rejected_deadline");
  EXPECT_STREQ(ServeStatusName(ServeStatus::kRejectedShutdown),
               "rejected_shutdown");
}

// ---- Bit-identity contract ------------------------------------------------

TEST(ExtractionServerTest, MatchesDirectPredictAtAnyBatchAndThreadCount) {
  const int prior_threads = par::Threads();
  SequenceLabelingModel model = TestModel();
  std::vector<Document> corpus = TestCorpus(8);
  std::vector<std::vector<EntitySpan>> expected;
  for (const Document& doc : corpus) expected.push_back(model.Predict(doc));

  for (int batch : {1, 3, 16}) {
    for (int threads : {1, 4}) {
      par::SetThreads(threads);
      ServeOptions options;
      options.max_batch = batch;
      ExtractionServer server(MakeSnapshot(model), options);
      // Two passes: the second is served from the caches and must be just
      // as identical (memoization, not approximation).
      for (int pass = 0; pass < 2; ++pass) {
        std::vector<ExtractResponse> responses = server.ExtractBatch(corpus);
        ASSERT_EQ(responses.size(), corpus.size());
        for (size_t i = 0; i < responses.size(); ++i) {
          EXPECT_EQ(responses[i].status, ServeStatus::kOk);
          EXPECT_EQ(responses[i].spans, expected[i])
              << "batch=" << batch << " threads=" << threads
              << " pass=" << pass << " doc=" << i;
          EXPECT_EQ(responses[i].doc_id, corpus[i].id());
        }
      }
      server.Shutdown();
    }
  }
  par::SetThreads(prior_threads);
}

// ---- Rejection paths ------------------------------------------------------

TEST(ExtractionServerTest, QueueFullRejectsInsteadOfBlocking) {
  std::vector<Document> corpus = TestCorpus(3);
  ServeOptions options;
  options.queue_capacity = 2;
  ExtractionServer server(MakeSnapshot(TestModel()), options);

  int64_t id0 = server.Submit(corpus[0]);
  int64_t id1 = server.Submit(corpus[1]);
  EXPECT_EQ(server.queue_depth(), 2);
  int64_t id2 = server.Submit(corpus[2]);  // over capacity: shed, not block

  ExtractResponse rejected = server.Wait(id2);
  EXPECT_EQ(rejected.status, ServeStatus::kRejectedQueueFull);
  EXPECT_NE(rejected.error.find("capacity 2"), std::string::npos);
  EXPECT_TRUE(rejected.spans.empty());

  EXPECT_EQ(server.Wait(id0).status, ServeStatus::kOk);
  EXPECT_EQ(server.Wait(id1).status, ServeStatus::kOk);
  EXPECT_EQ(server.queue_depth(), 0);
}

TEST(ExtractionServerTest, ExpiredDeadlineRejectsDeterministically) {
  std::vector<Document> corpus = TestCorpus(2);
  double fake_now_ms = 0;
  ServeOptions options;
  options.clock_ms = [&fake_now_ms] { return fake_now_ms; };
  ExtractionServer server(MakeSnapshot(TestModel()), options);

  int64_t strict = server.Submit(corpus[0], /*deadline_ms=*/5);
  int64_t lenient = server.Submit(corpus[1], /*deadline_ms=*/0);  // none
  fake_now_ms = 100;  // both requests now far past the strict deadline

  ExtractResponse late = server.Wait(strict);
  EXPECT_EQ(late.status, ServeStatus::kRejectedDeadline);
  EXPECT_NE(late.error.find("deadline"), std::string::npos);
  EXPECT_EQ(server.Wait(lenient).status, ServeStatus::kOk);
}

TEST(ExtractionServerTest, DefaultDeadlineAppliesWhenSubmitDoesNotOverride) {
  std::vector<Document> corpus = TestCorpus(1);
  double fake_now_ms = 0;
  ServeOptions options;
  options.clock_ms = [&fake_now_ms] { return fake_now_ms; };
  options.default_deadline_ms = 10;
  ExtractionServer server(MakeSnapshot(TestModel()), options);

  int64_t id = server.Submit(corpus[0]);  // inherits the 10 ms default
  fake_now_ms = 50;
  EXPECT_EQ(server.Wait(id).status, ServeStatus::kRejectedDeadline);
}

TEST(ExtractionServerTest, ShutdownDrainsQueueAndFailsFast) {
  std::vector<Document> corpus = TestCorpus(2);
  ExtractionServer server(MakeSnapshot(TestModel()));
  int64_t queued = server.Submit(corpus[0]);
  server.Shutdown();
  EXPECT_EQ(server.Wait(queued).status, ServeStatus::kRejectedShutdown);
  EXPECT_EQ(server.queue_depth(), 0);
  EXPECT_EQ(server.Extract(corpus[1]).status, ServeStatus::kRejectedShutdown);
  server.Shutdown();  // idempotent
}

// ---- Caches ---------------------------------------------------------------

TEST(ExtractionServerTest, ResultCacheHitsOnRepeatAndRespectsContentHash) {
  std::vector<Document> corpus = TestCorpus(1);
  SequenceLabelingModel model = TestModel();
  ExtractionServer server(MakeSnapshot(model));

  ExtractResponse first = server.Extract(corpus[0]);
  EXPECT_EQ(first.status, ServeStatus::kOk);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(first.encoded_cache_hit);

  ExtractResponse second = server.Extract(corpus[0]);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(second.encoded_cache_hit);
  EXPECT_EQ(second.spans, first.spans);

  // Same content under a fresh id still hits (DocContentHash ignores ids).
  Document renamed = corpus[0];
  renamed.set_id("resubmitted");
  EXPECT_TRUE(server.Extract(renamed).cache_hit);

  // Changed content misses.
  Document retext = corpus[0];
  retext.mutable_tokens()[0].text += "x";
  EXPECT_FALSE(server.Extract(retext).cache_hit);
  EXPECT_EQ(server.result_cache().hits(), 2);
}

TEST(ExtractionServerTest, EncodedCacheWorksWhenResultCacheDisabled) {
  std::vector<Document> corpus = TestCorpus(1);
  SequenceLabelingModel model = TestModel();
  ServeOptions options;
  options.result_cache_capacity = 0;
  ExtractionServer server(MakeSnapshot(model), options);

  ExtractResponse first = server.Extract(corpus[0]);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(first.encoded_cache_hit);
  ExtractResponse second = server.Extract(corpus[0]);
  EXPECT_FALSE(second.cache_hit);  // result memoization is off
  EXPECT_TRUE(second.encoded_cache_hit);
  EXPECT_EQ(second.spans, model.Predict(corpus[0]));
}

TEST(ExtractionServerTest, SnapshotSwapNeverServesStaleCacheEntries) {
  std::vector<Document> corpus = TestCorpus(1);
  SequenceLabelingModel model_a = TestModel(5);
  SequenceLabelingModel model_b = TestModel(1234);
  ExtractionServer server(MakeSnapshot(model_a, "a"));

  ExtractResponse before = server.Extract(corpus[0]);
  EXPECT_EQ(before.snapshot_version, "a");
  EXPECT_TRUE(server.Extract(corpus[0]).cache_hit);

  server.SwapSnapshot(MakeSnapshot(model_b, "b"));
  ExtractResponse after = server.Extract(corpus[0]);
  EXPECT_EQ(after.snapshot_version, "b");
  EXPECT_FALSE(after.cache_hit)
      << "cache keys include the snapshot sequence; a swap must miss";
  EXPECT_EQ(after.spans, model_b.Predict(corpus[0]));
}

// int8 serving needs each snapshot's quantized plan; the facade checks it
// at construction and on every swap, before the snapshot can reach a batch.
TEST(ExtractionServerTest, Int8ServingRejectsSnapshotsWithoutAPlan) {
  ServeOptions options;
  options.int8_inference = true;
  EXPECT_DEATH(
      { ExtractionServer doomed(MakeSnapshot(TestModel()), options); },
      "has no int8 plan");
  ExtractionServer server(
      MakeSnapshot(TestModel(), "int8", /*with_int8_plan=*/true), options);
  EXPECT_DEATH(server.SwapSnapshot(MakeSnapshot(TestModel())),
               "has no int8 plan");
  EXPECT_EQ(server.snapshot()->version(), "int8");
}

// ---- Hot swap under concurrency -------------------------------------------

TEST(ExtractionServerTest, HotSwapUnderConcurrentRequestsStaysConsistent) {
  // Serial par pool: the leader path then runs encode/predict inline in
  // whichever submitter thread leads, which keeps this test focused on the
  // server's own locking (and TSan-friendly).
  const int prior_threads = par::Threads();
  par::SetThreads(1);

  std::vector<Document> corpus = TestCorpus(6);
  SequenceLabelingModel model_a = TestModel(5);
  SequenceLabelingModel model_b = TestModel(1234);
  std::vector<std::vector<EntitySpan>> expected_a, expected_b;
  for (const Document& doc : corpus) {
    expected_a.push_back(model_a.Predict(doc));
    expected_b.push_back(model_b.Predict(doc));
  }

  ServeOptions options;
  options.max_batch = 4;
  ExtractionServer server(MakeSnapshot(model_a, "a"), options);

  // Every response must be internally consistent: the payload of the
  // snapshot whose version it reports, never a mix and never stale cache.
  std::atomic<int> mismatches{0};
  std::atomic<int> served{0};
  auto hammer = [&](int worker) {
    for (int j = 0; j < 20; ++j) {
      size_t which = static_cast<size_t>(worker * 7 + j) % corpus.size();
      ExtractResponse response = server.Extract(corpus[which]);
      if (response.status != ServeStatus::kOk) {
        ++mismatches;
        continue;
      }
      const std::vector<EntitySpan>& want =
          response.snapshot_version == "a" ? expected_a[which]
                                           : expected_b[which];
      if (response.spans != want) ++mismatches;
      ++served;
    }
  };

  // fslint: allow(no-raw-thread): this test hammers the server from
  // genuinely concurrent submitters to prove swap safety; par::ParallelFor
  // would serialize through the very pool under test.
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) workers.emplace_back(hammer, w);
  server.SwapSnapshot(MakeSnapshot(model_b, "b"));
  // fslint: allow(no-raw-thread): joining the raw test threads above.
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(served.load(), 80);
  EXPECT_EQ(server.snapshot()->version(), "b");
  par::SetThreads(prior_threads);
}

// ---- Multi-tenant serving (ISSUE 8) ---------------------------------------

// The headline determinism contract: each tenant's responses through the
// MultiTenantServer are bit-identical to direct Predict on the tenant's
// model — at any thread count, any batch size, and any interleaving of
// tenant traffic. Scheduling decides which batch serves a document, never
// the bytes of the response. (ExtractionServer is a facade over this same
// engine, so the reference is the model itself, not a second server.)
TEST(MultiTenantServerTest, MatchesSingleTenantServerBitIdentically) {
  const int prior_threads = par::Threads();
  const std::vector<std::string> tenants = {"acme", "globex", "initech"};
  std::vector<Document> corpus = TestCorpus(6);

  // Per-tenant references: the spans the multi-tenant path must reproduce
  // exactly.
  std::vector<std::vector<std::vector<EntitySpan>>> expected;
  for (size_t t = 0; t < tenants.size(); ++t) {
    SequenceLabelingModel model = TestModel(50 + t);
    std::vector<std::vector<EntitySpan>> per_doc;
    for (const Document& doc : corpus) per_doc.push_back(model.Predict(doc));
    expected.push_back(std::move(per_doc));
  }

  // (tenant_index, doc_index) submission orders: round-robin across
  // tenants, contiguous per-tenant blocks, and strided reverse.
  using Order = std::vector<std::pair<size_t, size_t>>;
  Order round_robin, blocks, reversed;
  for (size_t d = 0; d < corpus.size(); ++d) {
    for (size_t t = 0; t < tenants.size(); ++t) round_robin.push_back({t, d});
  }
  for (size_t t = 0; t < tenants.size(); ++t) {
    for (size_t d = 0; d < corpus.size(); ++d) blocks.push_back({t, d});
  }
  reversed = round_robin;
  std::reverse(reversed.begin(), reversed.end());

  for (int threads : {1, 4}) {
    for (int batch : {1, 3, 16}) {
      for (const Order& order : {round_robin, blocks, reversed}) {
        par::SetThreads(threads);
        ServeOptions options;
        options.max_batch = batch;
        auto registry = std::make_shared<ModelRegistry>();
        for (size_t t = 0; t < tenants.size(); ++t) {
          registry->Publish(tenants[t], MakeSnapshot(TestModel(50 + t)));
        }
        MultiTenantServer server(registry, options);
        std::vector<int64_t> ids;
        for (const auto& [t, d] : order) {
          ids.push_back(server.Submit(tenants[t], corpus[d]));
        }
        for (size_t i = 0; i < order.size(); ++i) {
          const auto& [t, d] = order[i];
          ExtractResponse response = server.Wait(ids[i]);
          ASSERT_EQ(response.status, ServeStatus::kOk);
          EXPECT_EQ(response.tenant, tenants[t]);
          EXPECT_EQ(response.tenant_version, 1u);
          EXPECT_EQ(response.spans, expected[t][d])
              << "tenant=" << tenants[t] << " doc=" << d
              << " threads=" << threads << " batch=" << batch;
        }
        server.Shutdown();
      }
    }
  }
  par::SetThreads(prior_threads);
}

// Hot-swapping one tenant's model while another tenant is actively being
// served: the swap lands between batches for the swapped tenant only, and
// the untouched tenant's responses never waver.
TEST(MultiTenantServerTest, HotSwapOneTenantWhileServingAnother) {
  const int prior_threads = par::Threads();
  par::SetThreads(1);  // concurrency comes from the raw threads below

  std::vector<Document> corpus = TestCorpus(6);
  SequenceLabelingModel stable_model = TestModel(5);
  SequenceLabelingModel moving_v1 = TestModel(1234);
  SequenceLabelingModel moving_v2 = TestModel(4321);
  std::vector<std::vector<EntitySpan>> expected_stable, expected_v1,
      expected_v2;
  for (const Document& doc : corpus) {
    expected_stable.push_back(stable_model.Predict(doc));
    expected_v1.push_back(moving_v1.Predict(doc));
    expected_v2.push_back(moving_v2.Predict(doc));
  }

  auto registry = std::make_shared<ModelRegistry>();
  registry->Publish("stable", MakeSnapshot(stable_model, "stable-v1"));
  registry->Publish("moving", MakeSnapshot(moving_v1, "moving-v1"));
  ServeOptions options;
  options.max_batch = 4;
  MultiTenantServer server(registry, options);

  std::atomic<int> mismatches{0};
  std::atomic<int> served{0};
  auto hammer = [&](const std::string& tenant) {
    for (int j = 0; j < 20; ++j) {
      size_t which = static_cast<size_t>(j) % corpus.size();
      ExtractResponse response = server.Extract(tenant, corpus[which]);
      if (response.status != ServeStatus::kOk) {
        ++mismatches;
        continue;
      }
      const std::vector<EntitySpan>* want = nullptr;
      if (tenant == "stable") {
        // The swap is for "moving"; "stable" must be byte-stable through
        // it, and always on its one published version.
        want = &expected_stable[which];
        if (response.tenant_version != 1) ++mismatches;
      } else {
        want = response.tenant_version == 1 ? &expected_v1[which]
                                            : &expected_v2[which];
      }
      if (response.spans != *want) ++mismatches;
      ++served;
    }
  };

  // fslint: allow(no-raw-thread): swap-while-serving needs genuinely
  // concurrent per-tenant submitters; the par pool is serialized here.
  std::vector<std::thread> workers;
  workers.emplace_back(hammer, "stable");
  workers.emplace_back(hammer, "stable");
  workers.emplace_back(hammer, "moving");
  workers.emplace_back(hammer, "moving");
  registry->Publish("moving", MakeSnapshot(moving_v2, "moving-v2"));
  // fslint: allow(no-raw-thread): joining the raw test threads above.
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(served.load(), 80);
  EXPECT_EQ(registry->ActiveVersion("moving"), 2u);
  EXPECT_EQ(registry->ActiveVersion("stable"), 1u);

  // After the dust settles, "moving" serves v2 exactly.
  ExtractResponse settled = server.Extract("moving", corpus[0]);
  EXPECT_EQ(settled.tenant_version, 2u);
  EXPECT_EQ(settled.spans, expected_v2[0]);
  par::SetThreads(prior_threads);
}

// Cross-tenant packing: tenants whose active snapshots are the SAME
// object (shared backbone) may share a batch — leftover room after the
// turn tenant's drain is filled work-conservingly — and share cache
// entries, with responses still per-tenant correct.
TEST(MultiTenantServerTest, SharedSnapshotTenantsPackIntoOneBatch) {
  auto registry = std::make_shared<ModelRegistry>();
  std::shared_ptr<const ModelSnapshot> backbone =
      MakeSnapshot(TestModel(5), "backbone");
  registry->Publish("x", backbone);
  registry->Publish("y", backbone);
  registry->Publish("z", MakeSnapshot(TestModel(99), "own"));  // not packable
  TenantQuota quota;
  quota.queue_capacity = 16;
  quota.batch_quantum = 2;  // leaves batch room for packing
  for (const char* tenant : {"x", "y", "z"}) registry->SetQuota(tenant, quota);

  SequenceLabelingModel backbone_model = TestModel(5);
  SequenceLabelingModel own_model = TestModel(99);
  ServeOptions options;
  options.max_batch = 8;
  MultiTenantServer server(registry, options);
  std::vector<Document> corpus = TestCorpus(2);

  std::vector<int64_t> ids;
  for (const Document& doc : corpus) {
    ids.push_back(server.Submit("x", doc));
    ids.push_back(server.Submit("y", doc));
    ids.push_back(server.Submit("z", doc));
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    ExtractResponse response = server.Wait(ids[i]);
    ASSERT_EQ(response.status, ServeStatus::kOk);
    const Document& doc = corpus[i / 3];
    const SequenceLabelingModel& model =
        response.tenant == "z" ? own_model : backbone_model;
    EXPECT_EQ(response.spans, model.Predict(doc)) << response.tenant;
  }

  // Someone rode along in another tenant's batch; only x and y qualify.
  EXPECT_GT(server.stats("x").packed_docs + server.stats("y").packed_docs, 0);
  EXPECT_EQ(server.stats("z").packed_docs, 0)
      << "distinct snapshots must never pack";
  server.Shutdown();
}

// Sharded service: content-hash routing is deterministic, every shard
// shares the one registry (a publish is visible on all shards), and
// responses match direct prediction.
TEST(ShardedTenantServiceTest, RoutesDeterministicallyAndServesAllShards) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->Publish("t", MakeSnapshot(TestModel(5)));
  ShardedTenantService service(registry, 3);
  EXPECT_EQ(service.num_shards(), 3);
  SequenceLabelingModel model = TestModel(5);
  std::vector<Document> corpus = TestCorpus(9);

  std::set<int> shards_hit;
  for (const Document& doc : corpus) {
    int shard = service.ShardFor(doc);
    EXPECT_EQ(shard, service.ShardFor(doc));  // stable routing
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 3);
    shards_hit.insert(shard);
    ExtractResponse response = service.Extract("t", doc);
    EXPECT_EQ(response.status, ServeStatus::kOk);
    EXPECT_EQ(response.spans, model.Predict(doc));
  }
  EXPECT_GT(shards_hit.size(), 1u) << "9 docs should spread across shards";

  // A publish through the shared registry reaches every shard.
  SequenceLabelingModel v2 = TestModel(6);
  registry->Publish("t", MakeSnapshot(TestModel(6)));
  for (const Document& doc : corpus) {
    ExtractResponse response = service.Extract("t", doc);
    EXPECT_EQ(response.tenant_version, 2u);
    EXPECT_EQ(response.spans, v2.Predict(doc));
  }
  service.Shutdown();
}

// ---- One engine, one vocabulary -------------------------------------------

/// Metric names whose value moved between two snapshots (new names
/// included): counters and gauges by value, histograms by count.
std::set<std::string> MovedMetrics(const obs::MetricsSnapshot& before,
                                   const obs::MetricsSnapshot& after) {
  std::set<std::string> moved;
  for (const auto& [name, value] : after.counters) {
    auto it = before.counters.find(name);
    if (it == before.counters.end() || it->second != value) moved.insert(name);
  }
  for (const auto& [name, value] : after.gauges) {
    auto it = before.gauges.find(name);
    if (it == before.gauges.end() || it->second != value) moved.insert(name);
  }
  for (const auto& [name, data] : after.histograms) {
    auto it = before.histograms.find(name);
    if (it == before.histograms.end() || it->second.count != data.count) {
      moved.insert(name);
    }
  }
  return moved;
}

// api::Serve is a facade over the multi-tenant engine, so single-tenant
// and multi-tenant serving emit the same metric and span names. Only the
// registry's own publish/rollback metrics keep the tenant prefix.
TEST(ServeVocabularyTest, SingleAndMultiTenantServingShareOneVocabulary) {
  std::vector<Document> corpus = TestCorpus(3);
  const std::set<std::string> registry_metrics = {
      "fieldswap.serve.tenant.publishes", "fieldswap.serve.tenant.count",
      "fieldswap.serve.tenant.rollbacks"};

  for (bool multi : {false, true}) {
    const obs::MetricsSnapshot before = obs::GlobalMetrics().Snapshot();
    const int64_t batches_before =
        obs::GlobalMetrics().CounterValue("fieldswap.serve.batches");
    const int64_t requests_before =
        obs::GlobalMetrics().CounterValue("fieldswap.serve.requests");
    const size_t first_event = obs::GlobalTrace().size();
    if (multi) {
      std::shared_ptr<ModelRegistry> registry = api::NewRegistry();
      api::PublishModel(*registry, "acme", TestModel());
      std::unique_ptr<MultiTenantServer> server = api::ServeTenants(registry);
      for (const ExtractResponse& response :
           server->ExtractBatch("acme", corpus)) {
        EXPECT_EQ(response.status, ServeStatus::kOk);
        EXPECT_EQ(response.tenant, "acme");
        EXPECT_EQ(response.tenant_version, 1u);
      }
    } else {
      std::unique_ptr<ExtractionServer> server = api::Serve(TestModel());
      for (const ExtractResponse& response : server->ExtractBatch(corpus)) {
        EXPECT_EQ(response.status, ServeStatus::kOk);
        EXPECT_EQ(response.tenant, "");
        EXPECT_EQ(response.tenant_version, 0u);
      }
    }

    EXPECT_GT(obs::GlobalMetrics().CounterValue("fieldswap.serve.batches"),
              batches_before)
        << "multi=" << multi;
    EXPECT_EQ(obs::GlobalMetrics().CounterValue("fieldswap.serve.requests"),
              requests_before + static_cast<int64_t>(corpus.size()))
        << "multi=" << multi;
    for (const std::string& name :
         MovedMetrics(before, obs::GlobalMetrics().Snapshot())) {
      EXPECT_FALSE(name.rfind("fieldswap.serve.tenant.", 0) == 0 &&
                   registry_metrics.count(name) == 0)
          << "multi=" << multi << " emitted server metric " << name;
    }

    std::set<std::string> spans;
    std::vector<obs::TraceEvent> events = obs::GlobalTrace().events();
    for (size_t i = first_event; i < events.size(); ++i) {
      spans.insert(events[i].name);
    }
    for (const char* want : {"serve.batch", "serve.encode", "serve.predict"}) {
      EXPECT_EQ(spans.count(want), 1u) << "multi=" << multi << " " << want;
    }
    for (const std::string& name : spans) {
      EXPECT_NE(name.rfind("serve.tenant_", 0), 0u)
          << "multi=" << multi << " emitted span " << name;
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace fieldswap
