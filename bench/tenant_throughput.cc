// Multi-tenant serving throughput: the registry-backed MultiTenantServer
// across tenant counts, cross-tenant batch packing when tenants share a
// backbone snapshot, and sharded serving off one mmap'd flat snapshot.
// Complements bench/serve_throughput's hot-tenant fairness leg: that one
// proves a flood cannot starve victims; this one measures what multi-
// tenancy costs (and what snapshot sharing buys) on friendly traffic.
//
// Every leg FS_CHECKs payloads bit-identical to direct Predict before any
// number is reported, and the driver is single-threaded, so all counter
// metrics (batches, packed docs, shard routing) are run-deterministic —
// only the wall-clock columns move between runs.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/fieldswap_api.h"
#include "bench_util.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/table.h"

namespace fieldswap {
namespace {

void Run() {
  PrintBanner("Multi-tenant serving throughput (registry, packing, flat "
              "shards)",
              "per-tenant isolation costs ~nothing on friendly traffic; "
              "shared-backbone tenants pack into shared batches; N shards "
              "serve one mmap'd weight copy bit-identically");

  const int unique_docs = EnvInt("FIELDSWAP_TENANT_BENCH_DOCS", 10);
  const int trace_len = EnvInt("FIELDSWAP_TENANT_BENCH_TRACE", 96);
  const int train_steps = EnvInt("FIELDSWAP_SERVE_BENCH_STEPS", 60);

  DomainSpec spec = InvoicesSpec();
  std::vector<Document> corpus =
      GenerateCorpus(spec, unique_docs, /*seed=*/406, "tenant-throughput");
  SequenceLabelingModel model = api::NewModel("invoices");
  TrainOptions train;
  train.total_steps = train_steps;
  train.validate_every = train_steps;
  api::Train(model, corpus, {}, train);
  par::SetThreads(EnvInt("FIELDSWAP_THREADS", 4));

  std::vector<std::vector<EntitySpan>> expected;
  for (const Document& doc : corpus) expected.push_back(model.Predict(doc));

  // Single-threaded closed-loop driver: round-robin the trace across T
  // tenants, submit everything, then wait in submission order. Returns
  // wall seconds; payloads are FS_CHECKed against direct Predict.
  auto drive = [&](serve::MultiTenantServer& server,
                   const std::vector<std::string>& tenants) {
    std::vector<std::pair<int64_t, size_t>> ids;
    obs::Stopwatch timer;
    for (int i = 0; i < trace_len; ++i) {
      size_t doc = static_cast<size_t>(i) % corpus.size();
      const std::string& tenant =
          tenants[static_cast<size_t>(i) % tenants.size()];
      ids.push_back({server.Submit(tenant, corpus[doc]), doc});
    }
    for (const auto& [id, doc] : ids) {
      serve::ExtractResponse response = server.Wait(id);
      FS_CHECK(response.status == serve::ServeStatus::kOk) << response.error;
      FS_CHECK(response.spans == expected[doc])
          << "multi-tenant payload diverged from direct Predict";
    }
    return timer.ElapsedSeconds();
  };
  auto tenant_names = [](int count) {
    std::vector<std::string> names;
    for (int t = 0; t < count; ++t) {
      names.push_back("tenant-" + std::to_string(t));
    }
    return names;
  };

  // Friendly traffic: neither the server-wide bound nor a tenant's quota
  // ever sheds, so the whole trace can be queued at once.
  serve::ServeOptions options;
  options.max_batch = 16;
  options.queue_capacity = trace_len;
  serve::TenantQuota quota;
  quota.queue_capacity = trace_len;
  quota.batch_quantum = 4;

  // ---- Leg 1: tenant-count scaling, distinct snapshots ---------------------
  TablePrinter scaling({"tenants", "wall s", "docs/s", "batches",
                        "packed docs", "identical"});
  for (int count : {1, 2, 4, 8}) {
    std::vector<std::string> tenants = tenant_names(count);
    auto registry = api::NewRegistry();
    for (const std::string& tenant : tenants) {
      api::PublishModel(*registry, tenant, model);  // one snapshot each
      registry->SetQuota(tenant, quota);
    }
    serve::MultiTenantServer server(registry, options);
    double wall_s = drive(server, tenants);

    int64_t packed = 0;
    for (const std::string& tenant : tenants) {
      packed += server.stats(tenant).packed_docs;
    }
    FS_CHECK(packed == 0) << "distinct snapshots must never pack";
    std::string tag = "fieldswap.serve.bench.mt.tenants_" +
                      std::to_string(count);
    obs::GaugeSet(tag + ".wall_s", wall_s);
    obs::GaugeSet(tag + ".docs_per_s",
                  wall_s > 0 ? trace_len / wall_s : 0);
    scaling.AddRow({std::to_string(count), FormatDouble(wall_s, 3),
                    FormatDouble(wall_s > 0 ? trace_len / wall_s : 0, 1),
                    std::to_string(server.batches_run()),
                    std::to_string(packed), "yes"});
  }
  scaling.Print(std::cout);

  // ---- Leg 2: shared backbone vs distinct snapshots ------------------------
  // Same four tenants, same trace; the only change is publishing ONE
  // snapshot object to everyone. Packing folds the quantum-limited
  // per-tenant drains into shared batches, so batches_run drops and
  // packed_docs appears — for free, because the responses are identical
  // by construction.
  std::vector<std::string> tenants = tenant_names(4);
  auto shared_registry = api::NewRegistry();
  std::shared_ptr<const serve::ModelSnapshot> backbone =
      serve::MakeSnapshot(model, "backbone");
  for (const std::string& tenant : tenants) {
    shared_registry->Publish(tenant, backbone);
    shared_registry->SetQuota(tenant, quota);
  }
  serve::MultiTenantServer shared_server(shared_registry, options);
  double shared_s = drive(shared_server, tenants);
  int64_t shared_packed = 0;
  for (const std::string& tenant : tenants) {
    shared_packed += shared_server.stats(tenant).packed_docs;
  }

  auto distinct_registry = api::NewRegistry();
  for (const std::string& tenant : tenants) {
    api::PublishModel(*distinct_registry, tenant, model);
    distinct_registry->SetQuota(tenant, quota);
  }
  serve::MultiTenantServer distinct_server(distinct_registry, options);
  double distinct_s = drive(distinct_server, tenants);

  FS_CHECK(shared_packed > 0)
      << "shared-backbone tenants should pack into shared batches";
  FS_CHECK(shared_server.batches_run() <= distinct_server.batches_run())
      << "packing must never need MORE batches than isolated scheduling";
  obs::GaugeSet("fieldswap.serve.bench.mt.shared_backbone.wall_s", shared_s);
  obs::GaugeSet("fieldswap.serve.bench.mt.distinct.wall_s", distinct_s);
  std::cout << "\nshared backbone: " << shared_server.batches_run()
            << " batches (" << shared_packed << " docs packed) vs "
            << distinct_server.batches_run()
            << " batches with distinct snapshots\n";

  // ---- Leg 3: shards over one mmap'd flat snapshot -------------------------
  // Write the backbone once, map it back (weights become views into the
  // mapping), publish the mapped snapshot for every tenant, and serve
  // through 3 shards — the in-process analogue of N server processes
  // sharing one physical weight copy.
  std::string flat_path = "tenant_throughput_backbone.fsfl";
  std::string error;
  obs::Stopwatch flat_timer;
  FS_CHECK(api::SaveFlatSnapshot(flat_path, *backbone, &error)) << error;
  double write_ms = flat_timer.ElapsedMs();
  flat_timer.Restart();
  std::shared_ptr<const serve::ModelSnapshot> mapped =
      api::LoadFlatSnapshot(flat_path, &error);
  FS_CHECK(mapped != nullptr) << error;
  double map_ms = flat_timer.ElapsedMs();
  obs::GaugeSet("fieldswap.serve.bench.mt.flat_write_ms", write_ms);
  obs::GaugeSet("fieldswap.serve.bench.mt.flat_map_ms", map_ms);

  auto flat_registry = api::NewRegistry();
  for (const std::string& tenant : tenants) {
    flat_registry->Publish(tenant, mapped);
    flat_registry->SetQuota(tenant, quota);
  }
  serve::ShardedTenantService shards(flat_registry, 3, options);
  flat_timer.Restart();
  for (int i = 0; i < trace_len; ++i) {
    size_t doc = static_cast<size_t>(i) % corpus.size();
    const std::string& tenant =
        tenants[static_cast<size_t>(i) % tenants.size()];
    serve::ExtractResponse response =
        shards.Extract(tenant, corpus[doc]);
    FS_CHECK(response.status == serve::ServeStatus::kOk) << response.error;
    FS_CHECK(response.spans == expected[doc])
        << "mmap'd shard payload diverged from direct Predict";
  }
  double shard_s = flat_timer.ElapsedSeconds();
  obs::GaugeSet("fieldswap.serve.bench.mt.flat_shards.wall_s", shard_s);
  shards.Shutdown();
  std::remove(flat_path.c_str());

  std::cout << "flat snapshot: write " << FormatDouble(write_ms, 2)
            << " ms, mmap-load " << FormatDouble(map_ms, 2) << " ms; "
            << trace_len << " docs through 3 shards on the one mapping in "
            << FormatDouble(shard_s, 3)
            << " s — payloads bit-identical throughout\n";
}

}  // namespace
}  // namespace fieldswap

int main() {
  fieldswap::Run();
  return 0;
}
