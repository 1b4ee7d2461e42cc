// Tests for the multi-tenant model registry and the fair-batching tenant
// server (ISSUE 8): lineage semantics (monotonic versions, append-only
// rollback), the concurrency battery (concurrent publish/rollback/extract
// across >= 4 tenants under raw threads, TSan-clean), quota-exhaustion
// rejection with an actionable reason, and the deterministic fairness
// bound — a flooding tenant cannot push another tenant's p100 queue wait
// (in batches) past its quota-implied bound.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "doc/document.h"
#include "model/sequence_model.h"
#include "par/parallel.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/tenant_server.h"
#include "synth/domains.h"
#include "synth/generator.h"

namespace fieldswap {
namespace serve {
namespace {

std::vector<Document> TestCorpus(int count, uint64_t seed = 91) {
  return GenerateCorpus(InvoicesSpec(), count, seed, "registry-test");
}

/// Untrained seeded model: Predict stays a pure deterministic function of
/// the weights, which is all registry/scheduling tests need.
SequenceLabelingModel TestModel(uint64_t seed) {
  SequenceModelConfig config;
  config.seed = seed;
  return SequenceLabelingModel(config, InvoicesSpec().Schema());
}

// ---- Lineage semantics ----------------------------------------------------

TEST(ModelRegistryTest, PublishAssignsMonotonicVersionsPerTenant) {
  ModelRegistry registry;
  EXPECT_FALSE(registry.Has("a"));
  EXPECT_EQ(registry.ActiveVersion("a"), 0u);
  EXPECT_EQ(registry.Active("a"), nullptr);

  EXPECT_EQ(registry.Publish("a", MakeSnapshot(TestModel(1), "a-v1")), 1u);
  EXPECT_EQ(registry.Publish("a", MakeSnapshot(TestModel(2), "a-v2")), 2u);
  EXPECT_EQ(registry.Publish("b", MakeSnapshot(TestModel(3), "b-v1")), 1u)
      << "version numbering is per tenant, not global";

  EXPECT_TRUE(registry.Has("a"));
  EXPECT_EQ(registry.ActiveVersion("a"), 2u);
  EXPECT_EQ(registry.Active("a")->version(), "a-v2");
  EXPECT_EQ(registry.Tenants(), (std::vector<std::string>{"a", "b"}));
}

TEST(ModelRegistryTest, RollbackIsAtomicAppendOnlyAndNumberingContinues) {
  ModelRegistry registry;
  registry.Publish("t", MakeSnapshot(TestModel(1), "v1"));
  registry.Publish("t", MakeSnapshot(TestModel(2), "v2"));
  registry.Publish("t", MakeSnapshot(TestModel(3), "v3"));

  EXPECT_TRUE(registry.Rollback("t", 1));
  EXPECT_EQ(registry.ActiveVersion("t"), 1u);
  EXPECT_EQ(registry.Active("t")->version(), "v1");

  // Rollback deletes nothing: the full lineage is still visible and any
  // version can be re-activated.
  std::vector<PublishedVersion> lineage = registry.Lineage("t");
  ASSERT_EQ(lineage.size(), 3u);
  EXPECT_EQ(lineage[0].version, 1u);
  EXPECT_EQ(lineage[2].version, 3u);
  EXPECT_TRUE(registry.Rollback("t", 3));
  EXPECT_EQ(registry.ActiveVersion("t"), 3u);

  // Publishing after a rollback continues the numbering — version numbers
  // identify one snapshot forever, they are never reused.
  registry.Rollback("t", 1);
  EXPECT_EQ(registry.Publish("t", MakeSnapshot(TestModel(4), "v4")), 4u);
  EXPECT_EQ(registry.ActiveVersion("t"), 4u);
  EXPECT_EQ(registry.Lineage("t").size(), 4u);

  EXPECT_FALSE(registry.Rollback("t", 99));
  EXPECT_FALSE(registry.Rollback("ghost", 1));
  EXPECT_EQ(registry.ActiveVersion("t"), 4u) << "failed rollback is a no-op";
}

TEST(ModelRegistryTest, QuotaDefaultsAndOverrides) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Quota("t").queue_capacity, 64);
  EXPECT_EQ(registry.Quota("t").batch_quantum, 16);
  TenantQuota quota;
  quota.queue_capacity = 4;
  quota.batch_quantum = 2;
  registry.SetQuota("t", quota);
  EXPECT_EQ(registry.Quota("t").queue_capacity, 4);
  EXPECT_EQ(registry.Quota("t").batch_quantum, 2);
  EXPECT_NE(TenantQuota{.queue_capacity = 0}.Validate().find("queue_capacity"),
            std::string::npos);
  EXPECT_NE(TenantQuota{.batch_quantum = 0}.Validate().find("batch_quantum"),
            std::string::npos);
}

TEST(ServeStatusTest, TenantStatusNames) {
  EXPECT_STREQ(ServeStatusName(ServeStatus::kRejectedQuota),
               "rejected_quota");
  EXPECT_STREQ(ServeStatusName(ServeStatus::kRejectedUnknownTenant),
               "rejected_unknown_tenant");
}

// ---- Admission ------------------------------------------------------------

TEST(MultiTenantServerTest, UnknownTenantRejectsWithReason) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->Publish("known", MakeSnapshot(TestModel(1)));
  MultiTenantServer server(registry);
  std::vector<Document> corpus = TestCorpus(1);

  ExtractResponse response = server.Extract("ghost", corpus[0]);
  EXPECT_EQ(response.status, ServeStatus::kRejectedUnknownTenant);
  EXPECT_EQ(response.tenant, "ghost");
  EXPECT_NE(response.error.find("no published model"), std::string::npos);
  EXPECT_EQ(server.Extract("known", corpus[0]).status, ServeStatus::kOk);
}

TEST(MultiTenantServerTest, QuotaExhaustionRejectsWithReasonAndIsPerTenant) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->Publish("small", MakeSnapshot(TestModel(1)));
  registry->Publish("roomy", MakeSnapshot(TestModel(2)));
  TenantQuota tight;
  tight.queue_capacity = 2;
  registry->SetQuota("small", tight);
  MultiTenantServer server(registry);
  std::vector<Document> corpus = TestCorpus(3);

  int64_t id0 = server.Submit("small", corpus[0]);
  int64_t id1 = server.Submit("small", corpus[1]);
  EXPECT_EQ(server.queue_depth("small"), 2);
  int64_t over = server.Submit("small", corpus[2]);  // past quota: shed

  ExtractResponse rejected = server.Wait(over);
  EXPECT_EQ(rejected.status, ServeStatus::kRejectedQuota);
  EXPECT_EQ(rejected.tenant, "small");
  EXPECT_NE(rejected.error.find("quota exhausted (capacity 2)"),
            std::string::npos);
  EXPECT_NE(rejected.error.find("TenantQuota.queue_capacity"),
            std::string::npos);
  EXPECT_TRUE(rejected.spans.empty());

  // Another tenant's admission is untouched by small's backpressure.
  EXPECT_EQ(server.Extract("roomy", corpus[2]).status, ServeStatus::kOk);

  EXPECT_EQ(server.Wait(id0).status, ServeStatus::kOk);
  EXPECT_EQ(server.Wait(id1).status, ServeStatus::kOk);
  EXPECT_EQ(server.stats("small").rejected_quota, 1);
  EXPECT_EQ(server.stats("roomy").rejected_quota, 0);
}

// ServeOptions.queue_capacity bounds admission across all tenants, and it
// is checked before the per-tenant quota: a full server sheds with
// kRejectedQueueFull even when every tenant has quota left, and charges
// no tenant a quota rejection.
TEST(MultiTenantServerTest, ServerWideQueueCapacityRejectsBeforeQuota) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->Publish("a", MakeSnapshot(TestModel(1)));
  registry->Publish("b", MakeSnapshot(TestModel(2)));
  TenantQuota roomy;
  roomy.queue_capacity = 16;
  registry->SetQuota("a", roomy);
  registry->SetQuota("b", roomy);
  ServeOptions options;
  options.queue_capacity = 3;
  MultiTenantServer server(registry, options);
  std::vector<Document> corpus = TestCorpus(4);

  std::vector<int64_t> admitted = {server.Submit("a", corpus[0]),
                                   server.Submit("b", corpus[1]),
                                   server.Submit("a", corpus[2])};
  int64_t over = server.Submit("b", corpus[3]);  // 4th: server is full

  ExtractResponse rejected = server.Wait(over);
  EXPECT_EQ(rejected.status, ServeStatus::kRejectedQueueFull);
  EXPECT_EQ(rejected.tenant, "b");
  EXPECT_NE(rejected.error.find("capacity 3"), std::string::npos);
  EXPECT_NE(rejected.error.find("ServeOptions.queue_capacity"),
            std::string::npos);
  EXPECT_TRUE(rejected.spans.empty());
  for (int64_t id : admitted) {
    EXPECT_EQ(server.Wait(id).status, ServeStatus::kOk);
  }
  EXPECT_EQ(server.stats("a").rejected_quota, 0);
  EXPECT_EQ(server.stats("b").rejected_quota, 0);

  // Draining frees server-wide room again.
  EXPECT_EQ(server.Extract("b", corpus[3]).status, ServeStatus::kOk);
}

TEST(MultiTenantServerTest, ResponsesCarryTenantAndVersion) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->Publish("t", MakeSnapshot(TestModel(1), "first"));
  registry->Publish("t", MakeSnapshot(TestModel(2), "second"));
  MultiTenantServer server(registry);
  std::vector<Document> corpus = TestCorpus(1);

  ExtractResponse response = server.Extract("t", corpus[0]);
  EXPECT_EQ(response.status, ServeStatus::kOk);
  EXPECT_EQ(response.tenant, "t");
  EXPECT_EQ(response.tenant_version, 2u);
  EXPECT_EQ(response.snapshot_version, "second");
  EXPECT_EQ(response.batches_waited, 0);
}

// ---- Concurrency battery --------------------------------------------------

// Concurrent publish/rollback/extract across 4 tenants under raw threads.
// Every tenant is owned by one publisher thread (so per-tenant version
// order is defined), while extractor threads hammer all tenants through
// the MultiTenantServer and a reader thread polls the registry. The test
// is meaningful under TSan (tools/check_sanitizers.sh runs it): it must be
// clean, and every response must be internally consistent — the exact
// spans of the model that owns the reported tenant_version, never a blend
// and never a version outside the tenant's lineage.
TEST(ModelRegistryTest, ConcurrentPublishRollbackExtractAcrossFourTenants) {
  // Serial par pool: batches run inline in whichever thread leads, keeping
  // the concurrency in THIS test's raw threads rather than the pool.
  const int prior_threads = par::Threads();
  par::SetThreads(1);

  const std::vector<std::string> tenants = {"alpha", "beta", "gamma", "delta"};
  constexpr int kVersionsPerTenant = 3;
  const std::vector<Document> corpus = TestCorpus(3);

  // Version v of tenant i always wraps the model seeded 100*i + v, so any
  // (tenant, tenant_version) response can be checked against ground truth.
  auto seed_of = [](size_t tenant_index, uint64_t version) {
    return 100 * static_cast<uint64_t>(tenant_index) + version;
  };
  std::vector<std::vector<std::vector<EntitySpan>>> expected(tenants.size());
  for (size_t t = 0; t < tenants.size(); ++t) {
    for (uint64_t v = 1; v <= kVersionsPerTenant; ++v) {
      SequenceLabelingModel model = TestModel(seed_of(t, v));
      for (const Document& doc : corpus) {
        expected[t].push_back(model.Predict(doc));
      }
    }
  }
  auto expected_spans = [&](size_t t, uint64_t version, size_t doc)
      -> const std::vector<EntitySpan>& {
    return expected[t][(version - 1) * corpus.size() + doc];
  };

  auto registry = std::make_shared<ModelRegistry>();
  for (size_t t = 0; t < tenants.size(); ++t) {
    registry->Publish(tenants[t], MakeSnapshot(TestModel(seed_of(t, 1))));
  }
  MultiTenantServer server(registry);

  std::atomic<int> violations{0};
  std::atomic<int> served{0};

  // Publishers: each owns two tenants; publishes the remaining versions
  // and rolls back, asserting monotonic version assignment and
  // no-stale-read (the registry must reflect a publish the moment it
  // returns — no other thread mutates these tenants).
  auto publish_own = [&](size_t tenant_index) {
    uint64_t last = 1;
    for (uint64_t v = 2; v <= kVersionsPerTenant; ++v) {
      uint64_t got = registry->Publish(
          tenants[tenant_index], MakeSnapshot(TestModel(
                                     seed_of(tenant_index, v))));
      if (got <= last) ++violations;  // monotonic, never reused
      last = got;
      if (registry->ActiveVersion(tenants[tenant_index]) != got) {
        ++violations;  // stale read after publish returned
      }
      if (!registry->Rollback(tenants[tenant_index], got - 1)) ++violations;
      if (registry->ActiveVersion(tenants[tenant_index]) != got - 1) {
        ++violations;  // stale read after rollback returned
      }
      if (!registry->Rollback(tenants[tenant_index], got)) ++violations;
    }
  };
  auto publisher = [&](size_t first, size_t second) {
    publish_own(first);
    publish_own(second);
  };

  auto extractor = [&](int worker) {
    for (int j = 0; j < 24; ++j) {
      size_t t = static_cast<size_t>(worker + j) % tenants.size();
      size_t d = static_cast<size_t>(j) % corpus.size();
      ExtractResponse response = server.Extract(tenants[t], corpus[d]);
      if (response.status != ServeStatus::kOk) {
        ++violations;
        continue;
      }
      if (response.tenant != tenants[t] || response.tenant_version < 1 ||
          response.tenant_version > kVersionsPerTenant) {
        ++violations;
        continue;
      }
      if (response.spans != expected_spans(t, response.tenant_version, d)) {
        ++violations;  // response blends versions or serves stale cache
      }
      ++served;
    }
  };

  auto reader = [&] {
    for (int j = 0; j < 200; ++j) {
      for (const std::string& tenant : tenants) {
        PublishedVersion entry = registry->ActiveEntry(tenant);
        if (entry.snapshot == nullptr || entry.version < 1 ||
            entry.version > kVersionsPerTenant) {
          ++violations;  // tenants never disappear, versions stay in lineage
        }
      }
    }
  };

  // fslint: allow(no-raw-thread): the battery needs genuinely concurrent
  // publishers/extractors/readers; the par pool is the serialized system
  // under test here, not a usable source of concurrency.
  std::vector<std::thread> threads;
  threads.emplace_back(publisher, 0, 1);
  threads.emplace_back(publisher, 2, 3);
  for (int w = 0; w < 4; ++w) threads.emplace_back(extractor, w);
  threads.emplace_back(reader);
  // fslint: allow(no-raw-thread): joining the raw battery threads above.
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(served.load(), 4 * 24);
  for (size_t t = 0; t < tenants.size(); ++t) {
    EXPECT_EQ(registry->ActiveVersion(tenants[t]), kVersionsPerTenant);
    EXPECT_EQ(registry->Lineage(tenants[t]).size(),
              static_cast<size_t>(kVersionsPerTenant));
  }
  par::SetThreads(prior_threads);
}

// ---- Fairness -------------------------------------------------------------

// A flooding tenant cannot push another tenant's p100 queue wait past its
// quota-implied bound. Fully deterministic: the driver is single-threaded
// and the bound is measured in whole batches (batches_waited), not wall
// time. With T active tenants each getting one DRR turn per cycle, a
// tenant submitting at most its effective quantum per round is always
// served within one full cycle: p100 batches_waited <= T, no matter how
// many thousands of documents the hot tenant has queued.
TEST(MultiTenantServerTest, FloodingTenantCannotStarveOthersPastQuotaBound) {
  auto registry = std::make_shared<ModelRegistry>();
  const std::vector<std::string> victims = {"victim-a", "victim-b",
                                            "victim-c"};
  registry->Publish("hot", MakeSnapshot(TestModel(1)));
  for (size_t i = 0; i < victims.size(); ++i) {
    registry->Publish(victims[i], MakeSnapshot(TestModel(10 + i)));
  }
  TenantQuota hot_quota;
  hot_quota.queue_capacity = 24;  // the admission cap that contains the flood
  hot_quota.batch_quantum = 4;
  registry->SetQuota("hot", hot_quota);
  TenantQuota victim_quota;
  victim_quota.queue_capacity = 8;
  victim_quota.batch_quantum = 4;
  for (const std::string& victim : victims) {
    registry->SetQuota(victim, victim_quota);
  }

  ServeOptions options;
  options.max_batch = 4;
  std::vector<Document> corpus = TestCorpus(8);

  // Each victim's ground truth: its own model's solo Predict per document.
  std::vector<std::vector<std::vector<EntitySpan>>> expected(victims.size());
  for (size_t v = 0; v < victims.size(); ++v) {
    SequenceLabelingModel model = TestModel(10 + v);
    for (const Document& doc : corpus) {
      expected[v].push_back(model.Predict(doc));
    }
  }

  MultiTenantServer fair_server(registry, options);
  int hot_rejected = 0;
  for (int round = 0; round < 6; ++round) {
    // The hot tenant floods: submit far past its quota every round.
    std::vector<int64_t> hot_ids;
    for (int i = 0; i < 40; ++i) {
      hot_ids.push_back(
          fair_server.Submit("hot", corpus[static_cast<size_t>(i) %
                                           corpus.size()]));
    }
    // Victims submit a modest burst, within their quantum.
    struct VictimRequest {
      int64_t id;
      size_t victim;
      size_t doc;
    };
    std::vector<VictimRequest> victim_requests;
    for (size_t v = 0; v < victims.size(); ++v) {
      for (int i = 0; i < 2; ++i) {
        const size_t doc = static_cast<size_t>(round * 2 + i) % corpus.size();
        victim_requests.push_back(
            {fair_server.Submit(victims[v], corpus[doc]), v, doc});
      }
    }
    for (const VictimRequest& request : victim_requests) {
      ExtractResponse response = fair_server.Wait(request.id);
      EXPECT_EQ(response.status, ServeStatus::kOk);
      EXPECT_EQ(response.spans, expected[request.victim][request.doc])
          << victims[request.victim] << " diverged from its solo Predict "
          << "under the flood";
    }
    for (int64_t id : hot_ids) {
      ExtractResponse response = fair_server.Wait(id);
      if (response.status == ServeStatus::kRejectedQuota) ++hot_rejected;
    }
  }

  const int64_t num_tenants = 4;  // hot + 3 victims
  for (const std::string& victim : victims) {
    TenantStats stats = fair_server.stats(victim);
    EXPECT_EQ(stats.served, stats.submitted) << victim;
    EXPECT_EQ(stats.rejected_quota, 0) << victim;
    EXPECT_LE(stats.max_batches_waited, num_tenants)
        << victim << ": a victim inside its quantum must be served within "
        << "one DRR cycle regardless of the hot tenant's backlog";
  }
  // The flood is contained by admission, not by slowing victims: the hot
  // tenant overshot its queue capacity every round.
  EXPECT_GT(hot_rejected, 0);
  EXPECT_EQ(fair_server.stats("hot").rejected_quota, hot_rejected);
  // DRR turn accounting: the hot tenant can never serve more than its
  // effective quantum per turn.
  TenantStats hot_stats = fair_server.stats("hot");
  EXPECT_LE(hot_stats.served,
            hot_stats.turn_batches * options.max_batch + hot_stats.packed_docs);
}

// ---- Hot swap while serving another tenant --------------------------------

TEST(MultiTenantServerTest, PublishForOneTenantLandsBetweenBatches) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->Publish("stable", MakeSnapshot(TestModel(1), "stable-v1"));
  registry->Publish("moving", MakeSnapshot(TestModel(2), "moving-v1"));
  MultiTenantServer server(registry);
  std::vector<Document> corpus = TestCorpus(2);

  SequenceLabelingModel stable_model = TestModel(1);
  SequenceLabelingModel moved_model = TestModel(3);

  ExtractResponse before = server.Extract("moving", corpus[0]);
  EXPECT_EQ(before.tenant_version, 1u);

  registry->Publish("moving", MakeSnapshot(TestModel(3), "moving-v2"));

  // The publish is visible to the next batch for "moving" and invisible to
  // "stable" — per-tenant lineage, per-tenant swap.
  ExtractResponse after = server.Extract("moving", corpus[0]);
  EXPECT_EQ(after.tenant_version, 2u);
  EXPECT_EQ(after.snapshot_version, "moving-v2");
  EXPECT_FALSE(after.cache_hit)
      << "cache keys include the snapshot sequence; a publish must miss";
  EXPECT_EQ(after.spans, moved_model.Predict(corpus[0]));

  ExtractResponse stable = server.Extract("stable", corpus[0]);
  EXPECT_EQ(stable.tenant_version, 1u);
  EXPECT_EQ(stable.spans, stable_model.Predict(corpus[0]));
}

}  // namespace
}  // namespace serve
}  // namespace fieldswap
