// The repository benchmark: drives the public API from outside the library
// on one seeded workload per process and prints every metric by name and
// unit, ending with one JSON line.
//
//   fsbench prepare --candidate-in <committed .ckpt> --candidate-out <path>
//   fsbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               --candidate <path> --workdir <dir>
//
// perfbench/run.py builds this binary and calls it; see BENCHMARK.json for
// the workloads and the metrics' bounds.
//
// Every workload runs the same user journey with its own inputs:
//   build  - open the corpora, (augment,) train, snapshot round trip,
//            streaming evaluation of the held-out corpus;
//   serve  - the built model behind the batched server: warm-up, a closed
//            loop that saturates it, then open-loop arrivals at fixed rates.
// augment_train spends its time in the build, serve_cold and
// serve_tenants_hot in serving (cold caches vs hot multi-tenant caches).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/fieldswap_api.h"
#include "loadgen.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "spans.h"

namespace perfbench {
namespace {

using namespace fieldswap;  // NOLINT: the benchmark uses the whole facade

constexpr const char* kDomain = "earnings";

[[noreturn]] void Fail(const std::string& message) {
  std::cerr << "fsbench: error: " << message << "\n";
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Workload definitions. Rates, limits and sizes are constants chosen once;
// nothing here is derived from a measurement at run time.

struct TenantMix {
  std::string name;
  double share = 0;       // share of the aggregate arrival rate
  bool bursting = false;  // on/off arrivals instead of steady Poisson
};

struct WorkloadSpec {
  std::string name;
  // Build.
  int train_docs = 0;
  int test_docs = 0;
  bool augment = false;
  int max_synthetics = 0;
  int train_steps = 0;
  bool second_model = false;  // trains the version published mid-run
  int min_builds = 1;
  double build_share = 0;  // keep building until this share of --seconds
  // Serve: `rounds` rounds (per 30 s of --seconds), each a closed-loop
  // chunk followed by one open-loop window per rate, so every rate is
  // sampled across the whole run and a machine hiccup spoils one window of
  // each rate rather than a whole rate. Latency figures are medians over a
  // rate's windows.
  std::vector<TenantMix> tenants;  // one entry = single-tenant api::Serve
  int pool_docs = 0;               // 0 = serve the held-out test corpus
  int warm_docs = 0;               // 0 = warm up on the pool itself
  double zipf_s = 0;               // 0 = cycle through the pool in order
  int rounds = 0;
  int closed_per_round = 0;
  std::vector<double> rates_rps;   // open-loop rates, ascending
  double ref_rps = 0;              // rate the latency metrics are read at
  double ref_window_s = 0;
  double p99_limit_ms = 0;
};

// A window is valid only if the generator kept to its schedule (p99 lag)
// and the backlog was not growing: at most kBacklogLimit requests in flight
// at its last arrival. Past kAbortInFlight it stops sending.
constexpr double kLagLimitMs = 5;
constexpr int64_t kBacklogLimit = 256;
constexpr int64_t kAbortInFlight = 1024;
// A bursting tenant sends only during the first kBurstOnShare of every
// kBurstPeriodMs.
constexpr double kBurstPeriodMs = 100;
constexpr double kBurstOnShare = 0.2;

/// Window length at `rps`: the reference window, else long enough for
/// about 1250 requests (a p99 with ten samples beyond it) and at least
/// 0.25 s.
double WindowSeconds(const WorkloadSpec& spec, double rps) {
  if (rps == spec.ref_rps) return spec.ref_window_s;
  return std::max(0.25, 1250.0 / rps);
}

WorkloadSpec MakeSpec(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "augment_train") {
    spec.train_docs = 40;
    spec.test_docs = 1000;
    spec.augment = true;
    spec.max_synthetics = 250;
    spec.train_steps = 2000;
    spec.min_builds = 3;
    spec.build_share = 0.5;
    spec.tenants = {{"default", 1.0, false}};
    spec.rounds = 3;
    spec.closed_per_round = 2000;
    spec.rates_rps = {1000, 2000, 4000, 12000};
    spec.ref_rps = 2000;
    spec.ref_window_s = 1.2;
    spec.p99_limit_ms = 25;
  } else if (name == "serve_cold") {
    spec.train_docs = 100;
    spec.test_docs = 1000;
    spec.train_steps = 600;
    spec.min_builds = 3;
    spec.tenants = {{"default", 1.0, false}};
    spec.pool_docs = 4096;
    spec.warm_docs = 256;
    spec.rounds = 5;
    spec.closed_per_round = 3000;
    spec.rates_rps = {1000, 2000, 4000, 12000};
    spec.ref_rps = 2000;
    spec.ref_window_s = 2.0;
    spec.p99_limit_ms = 25;
  } else if (name == "serve_tenants_hot") {
    spec.train_docs = 100;
    spec.test_docs = 1000;
    spec.train_steps = 600;
    spec.second_model = true;
    spec.min_builds = 3;
    // acme and beta share one backbone snapshot; acme arrives in bursts.
    spec.tenants = {{"acme", 0.4, true},
                    {"beta", 0.3, false},
                    {"gamma", 0.2, false},
                    {"delta", 0.1, false}};
    spec.pool_docs = 128;
    spec.zipf_s = 1.1;
    spec.rounds = 6;
    spec.closed_per_round = 10000;
    spec.rates_rps = {2000, 4000, 8000, 16000, 64000};
    spec.ref_rps = 4000;
    spec.ref_window_s = 1.5;
    spec.p99_limit_ms = 20;
  } else {
    Fail("unknown workload '" + name +
         "' (augment_train, serve_cold, serve_tenants_hot)");
  }
  return spec;
}

constexpr uint64_t kTrainCorpusSeed = 1;

// The tenant whose new model version is published mid-run.
constexpr const char* kPublishTenant = "delta";

// ---------------------------------------------------------------------------
// Seeded inputs.

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Exponential(double rate) { return -std::log1p(-Uniform()) / rate; }

 private:
  uint64_t state_;
};

class ZipfSampler {
 public:
  ZipfSampler(int n, double s) {
    double total = 0;
    for (int k = 1; k <= n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  int Sample(Rng& rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Uniform());
    return static_cast<int>(
        std::min<ptrdiff_t>(it - cdf_.begin(),
                            static_cast<ptrdiff_t>(cdf_.size()) - 1));
  }

 private:
  std::vector<double> cdf_;
};

struct Inputs {
  std::string train_path;
  std::string test_path;
  std::string flat_path;
  std::optional<CandidateScoringModel> candidate;
  std::vector<Document> pool;  // documents requests are drawn from
  std::vector<Document> warm;  // warm-up documents
  std::vector<Arrival> warm_requests;
  std::vector<std::vector<Arrival>> closed;               // [round]
  std::vector<std::vector<std::vector<Arrival>>> windows;  // [round][rate]
};

std::vector<char> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

/// Loads the candidate model from an explicit path and fails instead of
/// letting the library silently pre-train a replacement.
CandidateScoringModel LoadCandidate(const std::string& path) {
  if (!std::filesystem::exists(path)) {
    Fail("candidate model checkpoint missing: " + path);
  }
  std::vector<char> before = ReadBytes(path);
  CandidateScoringModel model = GetOrTrainCachedCandidateModel(path);
  if (ReadBytes(path) != before) {
    Fail("candidate checkpoint " + path +
         " did not load; the library pre-trained a replacement");
  }
  return model;
}

void WriteFsc(const std::string& path, const std::vector<Document>& docs) {
  doc::CorpusStatus status;
  std::unique_ptr<doc::CorpusWriter> writer =
      api::WriteCorpus(path, "", &status);
  if (writer == nullptr) Fail("cannot create " + path + ": " + status.ToString());
  for (const Document& d : docs) writer->Add(d);
  if (!writer->Finish()) {
    Fail("cannot write " + path + ": " + writer->status().ToString());
  }
}

int NextDoc(const Inputs& in, Rng& rng, const ZipfSampler* zipf,
            int64_t& cursor) {
  if (zipf != nullptr) return zipf->Sample(rng);
  return static_cast<int>(cursor++ % static_cast<int64_t>(in.pool.size()));
}

int PickTenant(const WorkloadSpec& spec, Rng& rng) {
  double u = rng.Uniform();
  for (size_t t = 0; t < spec.tenants.size(); ++t) {
    u -= spec.tenants[t].share;
    if (u < 0) return static_cast<int>(t);
  }
  return static_cast<int>(spec.tenants.size()) - 1;
}

/// Open-loop arrivals at aggregate `rps` for `seconds`: steady tenants are
/// Poisson at their share; a bursting tenant sends its share only during
/// the "on" part of each burst period, at a proportionally higher rate.
std::vector<Arrival> OpenSchedule(const WorkloadSpec& spec, const Inputs& in,
                                  double rps, double seconds, Rng& rng,
                                  const ZipfSampler* zipf, int64_t& cursor) {
  std::vector<Arrival> arrivals;
  const double horizon_us = seconds * 1e6;
  for (size_t t = 0; t < spec.tenants.size(); ++t) {
    const TenantMix& tenant = spec.tenants[t];
    double rate_per_us = rps * tenant.share / 1e6;
    if (tenant.bursting) rate_per_us /= kBurstOnShare;
    const double period_us = kBurstPeriodMs * 1000.0;
    const double on_us = period_us * kBurstOnShare;
    double now = 0;
    while (true) {
      now += rng.Exponential(rate_per_us);
      if (tenant.bursting && std::fmod(now, period_us) >= on_us) {
        // Skip the "off" part of the period (memoryless, so restarting the
        // exponential clock at the next "on" edge keeps it Poisson there).
        now = (std::floor(now / period_us) + 1) * period_us;
        continue;
      }
      if (now >= horizon_us) break;
      arrivals.push_back({now, 0, static_cast<int>(t)});
    }
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              if (a.due_us != b.due_us) return a.due_us < b.due_us;
              return a.tenant < b.tenant;
            });
  for (Arrival& a : arrivals) a.doc = NextDoc(in, rng, zipf, cursor);
  return arrivals;
}

/// Rounds actually run: the spec's count per 30 s of --seconds, at least 3.
int Rounds(const WorkloadSpec& spec, int seconds) {
  return std::max(3, static_cast<int>(std::lround(spec.rounds * seconds / 30.0)));
}

Inputs Setup(const WorkloadSpec& spec, uint64_t seed, int seconds,
             const std::string& candidate_path, const std::string& workdir) {
  Inputs in;
  std::filesystem::create_directories(workdir);
  in.train_path = workdir + "/train.fsc";
  in.test_path = workdir + "/test.fsc";
  in.flat_path = workdir + "/model.fsfl";
  DomainSpec domain = SpecByName(kDomain);
  const uint64_t base = seed * 1000003ull;
  // The training corpus is the same for every seed, so build work (and
  // test_micro_f1) does not swing with which few documents a seed happens
  // to draw; the seed draws the held-out corpus and all serving traffic.
  std::vector<Document> train =
      GenerateCorpus(domain, spec.train_docs, kTrainCorpusSeed, "train");
  std::vector<Document> test =
      GenerateCorpus(domain, spec.test_docs, base + 2, "test");
  WriteFsc(in.train_path, train);
  WriteFsc(in.test_path, test);
  if (spec.augment) in.candidate.emplace(LoadCandidate(candidate_path));

  if (spec.pool_docs == 0) {
    in.pool = std::move(test);
    in.warm = std::move(train);
  } else {
    in.pool = GenerateCorpus(domain, spec.pool_docs, base + 3, "pool");
    if (spec.warm_docs > 0) {
      in.warm = GenerateCorpus(domain, spec.warm_docs, base + 4, "warm");
    }
  }
  // Warm-up documents must not warm the caches for measured ones.
  std::set<uint64_t> pool_hashes;
  for (const Document& d : in.pool) pool_hashes.insert(serve::DocContentHash(d));
  for (const Document& d : in.warm) {
    if (pool_hashes.count(serve::DocContentHash(d)) != 0) {
      Fail("warm-up document " + d.id() + " repeats a measured document");
    }
  }

  Rng rng(base + 5);
  std::optional<ZipfSampler> zipf;
  if (spec.zipf_s > 0) zipf.emplace(spec.pool_docs, spec.zipf_s);
  const ZipfSampler* sampler = zipf ? &*zipf : nullptr;
  int64_t cursor = 0;
  if (in.warm.empty()) {
    // Hot workload: warm the caches on every pool document for every
    // tenant, as a long-running server would be.
    for (size_t t = 0; t < spec.tenants.size(); ++t) {
      for (size_t d = 0; d < in.pool.size(); ++d) {
        in.warm_requests.push_back({0, static_cast<int>(d), static_cast<int>(t)});
      }
    }
  } else {
    for (size_t d = 0; d < in.warm.size(); ++d) {
      in.warm_requests.push_back({0, static_cast<int>(d), 0});
    }
  }
  for (int round = 0; round < Rounds(spec, seconds); ++round) {
    std::vector<Arrival> closed;
    for (int i = 0; i < spec.closed_per_round; ++i) {
      int tenant = PickTenant(spec, rng);
      closed.push_back({0, NextDoc(in, rng, sampler, cursor), tenant});
    }
    in.closed.push_back(std::move(closed));
    std::vector<std::vector<Arrival>> windows;
    for (double rps : spec.rates_rps) {
      windows.push_back(OpenSchedule(spec, in, rps, WindowSeconds(spec, rps),
                                     rng, sampler, cursor));
    }
    in.windows.push_back(std::move(windows));
  }
  return in;
}

// ---------------------------------------------------------------------------
// Build: steps 1-5 of the offline loop.

struct BuildResult {
  std::optional<SequenceLabelingModel> model;
  std::optional<SequenceLabelingModel> second_model;
  double seconds = 0;
  double micro_f1 = 0;
  double final_loss = 0;
  int64_t synthetics = 0;
  int64_t swap_generated = 0;
  int64_t swap_discarded_unchanged = 0;
  int64_t train_steps = 0;  // summed over every model trained
};

BuildResult BuildOnce(const WorkloadSpec& spec, const Inputs& in) {
  BuildResult result;
  double start = NowUs();
  doc::CorpusStatus status;
  std::vector<Document> train;
  std::unique_ptr<doc::CorpusReader> test;
  {
    Span span("doc.read");
    std::unique_ptr<doc::CorpusReader> reader =
        api::OpenCorpus(in.train_path, "", &status);
    if (reader == nullptr) Fail(in.train_path + ": " + status.ToString());
    train.resize(reader->size());
    for (size_t i = 0; i < train.size(); ++i) {
      if (!reader->Get(i, &train[i], &status)) {
        Fail(in.train_path + ": " + status.ToString());
      }
    }
    test = api::OpenCorpus(in.test_path, "", &status);
    if (test == nullptr) Fail(in.test_path + ": " + status.ToString());
  }
  AugmentationResult augmented;
  if (spec.augment) {
    Span span("core.augment");
    FieldSwapPipelineOptions options;
    options.strategy = MappingStrategy::kTypeToType;
    options.swap.max_synthetics = spec.max_synthetics;
    augmented = api::Augment(train, SpecByName(kDomain), options,
                             &*in.candidate);
  }
  result.synthetics = static_cast<int64_t>(augmented.synthetics.size());
  result.swap_generated = augmented.stats.generated;
  result.swap_discarded_unchanged = augmented.stats.discarded_unchanged;
  {
    Span span("model.train");
    TrainOptions options;
    options.total_steps = spec.train_steps;
    result.model.emplace(api::NewModel(kDomain));
    TrainResult trained =
        api::Train(*result.model, train, augmented.synthetics, options);
    result.final_loss = trained.final_loss;
    result.train_steps += trained.steps;
    if (spec.second_model) {
      options.seed += 1;
      result.second_model.emplace(api::NewModel(kDomain));
      result.train_steps +=
          api::Train(*result.second_model, train, {}, options).steps;
    }
  }
  std::shared_ptr<const serve::ModelSnapshot> loaded;
  {
    Span span("serve.snapshot");
    std::string error;
    auto snapshot = serve::MakeSnapshot(*result.model, "build");
    if (!api::SaveFlatSnapshot(in.flat_path, *snapshot, &error)) {
      Fail("SaveFlatSnapshot: " + error);
    }
    loaded = api::LoadFlatSnapshot(in.flat_path, &error);
    if (loaded == nullptr) Fail("LoadFlatSnapshot: " + error);
  }
  {
    Span span("eval.evaluate");
    result.micro_f1 = api::Evaluate(loaded->model(), *test).micro_f1;
  }
  result.seconds = (NowUs() - start) / 1e6;
  return result;
}

// ---------------------------------------------------------------------------
// Serve.

double CpuSeconds() {
  obs::ProcessStats stats = obs::SampleProcessStats();
  return stats.user_cpu_s + stats.system_cpu_s;
}

struct ServeRun {
  PhaseResult warm;
  std::vector<PhaseResult> closed;               // [round]
  std::vector<double> closed_cpu_ms_per_doc;      // [round]
  std::vector<std::vector<PhaseResult>> windows;  // [round][rate]
  double extract_docs_per_s = 0;
  double publish_ms = 0;
  int64_t batches_run = -1;  // multi-tenant only (public counter)
  bool versions_ok = true;
  std::string version_error;
};

/// Serves the first `rounds` rounds of `in`; without `open_loop` only
/// their closed-loop chunks.
ServeRun Serve(const WorkloadSpec& spec, const Inputs& in,
               const BuildResult& build, size_t rounds, bool open_loop) {
  ServeRun run;
  const bool multi = spec.tenants.size() > 1;
  std::unique_ptr<serve::ExtractionServer> single;
  std::shared_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::MultiTenantServer> tenants;
  {
    Span span("serve.start");
    serve::ServeOptions options;
    // Past capacity requests queue rather than being shed, so an overload
    // window shows as a growing backlog and a missed latency limit.
    options.queue_capacity = 1 << 16;
    if (!multi) {
      single = api::Serve(*build.model, options, "v1");
    } else {
      registry = api::NewRegistry();
      serve::TenantQuota quota;
      quota.queue_capacity = 1 << 14;
      for (const TenantMix& tenant : spec.tenants) {
        registry->SetQuota(tenant.name, quota);
      }
      api::PublishModel(*registry, spec.tenants[0].name, *build.model, "v1");
      // The second tenant shares the first one's backbone snapshot.
      registry->Publish(spec.tenants[1].name,
                        registry->Active(spec.tenants[0].name));
      for (size_t t = 2; t < spec.tenants.size(); ++t) {
        api::PublishModel(*registry, spec.tenants[t].name, *build.model, "v1");
      }
      tenants = api::ServeTenants(registry, options);
    }
  }

  // Expected payloads: api::ExtractBatch is bit-identical to api::Extract
  // per document, and doubles as the no-server throughput ceiling.
  std::vector<std::vector<std::vector<EntitySpan>>> expected;
  std::vector<std::vector<EntitySpan>> expected_warm;
  {
    Span span("model.extract_batch");
    double start = NowUs();
    expected.push_back(api::ExtractBatch(*build.model, in.pool));
    run.extract_docs_per_s =
        static_cast<double>(in.pool.size()) / ((NowUs() - start) / 1e6);
    if (build.second_model) {
      expected.push_back(api::ExtractBatch(*build.second_model, in.pool));
    }
    if (!in.warm.empty()) {
      expected_warm = api::ExtractBatch(*build.model, in.warm);
    }
  }

  auto make_target = [&](const std::vector<Document>& docs, bool warm) {
    ServeTarget target;
    if (!multi) {
      target.submit = [&](const Arrival& a) {
        return single->Submit(docs[static_cast<size_t>(a.doc)]);
      };
      target.wait = [&](int64_t ticket) { return single->Wait(ticket); };
    } else {
      target.submit = [&](const Arrival& a) {
        return tenants->Submit(spec.tenants[static_cast<size_t>(a.tenant)].name,
                               docs[static_cast<size_t>(a.doc)]);
      };
      target.wait = [&](int64_t ticket) { return tenants->Wait(ticket); };
    }
    target.check = [&, warm](const Arrival& a,
                             const serve::ExtractResponse& r) {
      size_t d = static_cast<size_t>(a.doc);
      if (warm) return r.spans == expected_warm[d];
      size_t model = 0;
      if (multi &&
          spec.tenants[static_cast<size_t>(a.tenant)].name == kPublishTenant &&
          r.tenant_version >= 2) {
        model = 1;
      }
      return r.spans == expected[model][d];
    };
    return target;
  };
  const int waiters = 3;  // plus the submitter: four load threads
  if (!in.warm.empty()) {
    run.warm = RunClosedLoop(make_target(in.warm, true), in.warm_requests,
                             waiters, 16);
  } else {
    run.warm = RunClosedLoop(make_target(in.pool, false), in.warm_requests,
                             waiters, 16);
  }

  const ServeTarget target = make_target(in.pool, false);
  for (size_t round = 0; round < rounds; ++round) {
    // Process CPU time (all threads) per document: what serving costs.
    // Unlike wall time it does not grow while the host deschedules the
    // machine's CPUs. One client with a deep window keeps the server busy
    // with back-to-back batches; with several racing clients the CPU spent
    // on wake-ups, and so the figure, depended on how threads interleaved.
    const double cpu_before = CpuSeconds();
    run.closed.push_back(RunClosedLoop(target, in.closed[round], 1, 256));
    run.closed_cpu_ms_per_doc.push_back(
        (CpuSeconds() - cpu_before) * 1e3 /
        static_cast<double>(in.closed[round].size()));
    if (!open_loop) continue;
    std::vector<PhaseResult> windows;
    for (size_t r = 0; r < spec.rates_rps.size(); ++r) {
      std::function<void()> publish;
      if (build.second_model && round == rounds / 2 &&
          spec.rates_rps[r] == spec.ref_rps) {
        publish = [&] {
          Span span("serve.publish");
          api::PublishModel(*registry, kPublishTenant, *build.second_model,
                            "v2");
        };
      }
      windows.push_back(RunOpenLoop(target, in.windows[round][r], waiters,
                                    kAbortInFlight, publish));
      if (publish) run.publish_ms = windows.back().action_ms;
    }
    run.windows.push_back(std::move(windows));
  }
  if (multi) run.batches_run = tenants->batches_run();

  // tenant_version never decreases, in submission order, across the
  // mid-run publish; the published tenant ends on version 2.
  if (multi) {
    Span span("loadgen.check");
    std::vector<uint64_t> last(spec.tenants.size(), 0);
    auto scan = [&](const std::vector<Arrival>& arrivals,
                    const PhaseResult& phase) {
      std::vector<size_t> order(phase.outcomes.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return phase.outcomes[a].ticket < phase.outcomes[b].ticket;
      });
      for (size_t i : order) {
        const Outcome& o = phase.outcomes[i];
        if (o.status != serve::ServeStatus::kOk) continue;
        size_t t = static_cast<size_t>(arrivals[i].tenant);
        if (o.tenant_version < last[t]) {
          run.versions_ok = false;
          run.version_error = spec.tenants[t].name + " went from version " +
                              std::to_string(last[t]) + " to " +
                              std::to_string(o.tenant_version);
        }
        last[t] = o.tenant_version;
      }
    };
    for (size_t round = 0; round < run.closed.size(); ++round) {
      scan(in.closed[round], run.closed[round]);
      if (!open_loop) continue;
      for (size_t r = 0; r < run.windows[round].size(); ++r) {
        scan(in.windows[round][r], run.windows[round][r]);
      }
    }
    for (size_t t = 0; t < spec.tenants.size(); ++t) {
      if (open_loop && spec.tenants[t].name == kPublishTenant && last[t] < 2) {
        run.versions_ok = false;
        run.version_error = std::string(kPublishTenant) +
                            " never served the version published mid-run";
      }
    }
  }
  return run;
}

// ---------------------------------------------------------------------------
// Metrics.

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool IsOk(const Outcome& o) { return o.status == serve::ServeStatus::kOk; }

/// Latencies of one window, every non-OK response counted as missing
/// every limit. With `quiet_only`, requests of bursting tenants are left
/// out.
std::vector<double> Latencies(const WorkloadSpec& spec,
                              const std::vector<Arrival>& arrivals,
                              const PhaseResult& phase, bool quiet_only) {
  std::vector<double> values;
  for (size_t i = 0; i < phase.outcomes.size(); ++i) {
    if (quiet_only &&
        spec.tenants[static_cast<size_t>(arrivals[i].tenant)].bursting) {
      continue;
    }
    const Outcome& o = phase.outcomes[i];
    values.push_back(IsOk(o) ? o.latency_ms : HUGE_VAL);
  }
  return values;
}

/// One open-loop window at one rate.
struct WindowReport {
  int64_t samples = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double quiet_p99_ms = 0;
  double lag_p99_ms = 0;
  double within_limit = 0;  // share of requests OK and within the limit
  bool valid = false;
};

WindowReport ReportWindow(const WorkloadSpec& spec,
                          const std::vector<Arrival>& arrivals,
                          const PhaseResult& phase) {
  WindowReport report;
  std::vector<double> latencies = Latencies(spec, arrivals, phase, false);
  report.samples = static_cast<int64_t>(latencies.size());
  report.p50_ms = Quantile(latencies, 0.5);
  report.p99_ms = Quantile(latencies, 0.99);
  report.quiet_p99_ms =
      Quantile(Latencies(spec, arrivals, phase, true), 0.99);
  std::vector<double> lags;
  int64_t within = 0;
  for (const Outcome& o : phase.outcomes) {
    lags.push_back(o.lag_ms);
    if (IsOk(o) && o.latency_ms <= spec.p99_limit_ms) ++within;
  }
  report.lag_p99_ms = Quantile(lags, 0.99);
  report.within_limit = static_cast<double>(within) /
                        static_cast<double>(arrivals.size());
  report.valid = !phase.aborted && report.samples >= 1000 &&
                 report.p99_ms <= spec.p99_limit_ms &&
                 report.lag_p99_ms <= kLagLimitMs &&
                 phase.backlog_at_last_arrival <= kBacklogLimit;
  return report;
}

/// One rate over all its windows.
struct RateReport {
  double rps = 0;
  std::vector<WindowReport> windows;
  int64_t samples = 0;     // pooled over windows
  double pooled_p50_ms = 0;
  double pooled_p99_ms = 0;
  double top_q = 0;        // highest quantile the pooled sample supports
  double top_ms = 0;
  double p50_ms = 0;       // medians over windows
  double p99_ms = 0;
  double quiet_p99_ms = 0;
  double lag_p99_ms = 0;
  double within_limit = 0;
  int64_t backlog_max = 0;
  int valid_windows = 0;
  bool valid = false;      // a majority of its windows met every limit
};

RateReport ReportRate(const WorkloadSpec& spec, const Inputs& in,
                      const ServeRun& run, size_t r) {
  RateReport report;
  report.rps = spec.rates_rps[r];
  std::vector<double> pooled, p50, p99, quiet, lag, within;
  for (size_t round = 0; round < run.windows.size(); ++round) {
    const PhaseResult& phase = run.windows[round][r];
    const std::vector<Arrival>& arrivals = in.windows[round][r];
    WindowReport w = ReportWindow(spec, arrivals, phase);
    std::vector<double> latencies = Latencies(spec, arrivals, phase, false);
    pooled.insert(pooled.end(), latencies.begin(), latencies.end());
    p50.push_back(w.p50_ms);
    p99.push_back(w.p99_ms);
    quiet.push_back(w.quiet_p99_ms);
    lag.push_back(w.lag_p99_ms);
    within.push_back(w.within_limit);
    report.backlog_max = std::max(report.backlog_max, phase.backlog_max);
    if (w.valid) ++report.valid_windows;
    report.windows.push_back(w);
  }
  report.samples = static_cast<int64_t>(pooled.size());
  report.pooled_p50_ms = Quantile(pooled, 0.5);
  report.pooled_p99_ms = Quantile(pooled, 0.99);
  report.top_q = HighestSupportedQuantile(report.samples);
  report.top_ms = Quantile(pooled, report.top_q);
  report.p50_ms = Median(p50);
  report.p99_ms = Median(p99);
  report.quiet_p99_ms = Median(quiet);
  report.lag_p99_ms = Median(lag);
  report.within_limit = Median(within);
  report.valid = 2 * report.valid_windows > static_cast<int>(report.windows.size());
  return report;
}

std::string QuantileName(double q) {
  std::ostringstream os;
  os << "p" << q * 100;
  return os.str();
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string Num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "# " << m.name << " = " << Num(m.value) << " " << m.unit
              << "\n";
  }
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    double value = std::isfinite(m.value) ? m.value : -1;
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << Num(value)
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// ---------------------------------------------------------------------------
// One run.

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string candidate;
  std::string workdir;
  std::string candidate_in;
  std::string candidate_out;
};

struct Measured {
  std::vector<BuildResult> builds;
  ServeRun serve;
  double start_us = 0;
  double end_us = 0;
};

/// Builds, then serves; `unit` serves only the first closed-loop round.
Measured MeasureOnce(const WorkloadSpec& spec, const Inputs& in, int seconds,
                     bool unit) {
  Measured m;
  m.start_us = NowUs();
  const double build_budget_us = spec.build_share * seconds * 1e6;
  while (static_cast<int>(m.builds.size()) < spec.min_builds ||
         NowUs() - m.start_us < build_budget_us) {
    m.builds.push_back(BuildOnce(spec, in));
    // Only the last build's models are served; drop the others' weights.
    if (m.builds.size() > 1) {
      m.builds[m.builds.size() - 2].model.reset();
      m.builds[m.builds.size() - 2].second_model.reset();
    }
  }
  m.serve = Serve(spec, in, m.builds.back(), unit ? 1 : in.closed.size(),
                  !unit);
  m.end_us = NowUs();
  return m;
}

/// Outcome counts over the serving phases.
struct Totals {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t ok = 0;
  int64_t result_hits = 0;
  int64_t encoded_hits_on_miss = 0;
  int64_t queue_full = 0;
  int64_t quota = 0;
  int64_t deadline = 0;
  bool payloads_ok = true;
};

Totals Count(const ServeRun& run, bool include_warm) {
  Totals totals;
  auto add = [&](const PhaseResult& phase) {
    for (const Outcome& o : phase.outcomes) {
      ++totals.attempted;
      totals.payloads_ok = totals.payloads_ok && o.payload_ok;
      switch (o.status) {
        case serve::ServeStatus::kOk:
          ++totals.ok;
          if (o.cache_hit) ++totals.result_hits;
          if (!o.cache_hit && o.encoded_cache_hit) ++totals.encoded_hits_on_miss;
          break;
        case serve::ServeStatus::kRejectedQueueFull:
          ++totals.queue_full;
          ++totals.failed;
          break;
        case serve::ServeStatus::kRejectedQuota:
          ++totals.quota;
          ++totals.failed;
          break;
        case serve::ServeStatus::kRejectedDeadline:
          ++totals.deadline;
          ++totals.failed;
          break;
        default:
          ++totals.failed;
          break;
      }
    }
  };
  if (include_warm) add(run.warm);
  for (const PhaseResult& phase : run.closed) add(phase);
  for (const auto& round : run.windows) {
    for (const PhaseResult& phase : round) add(phase);
  }
  return totals;
}

double ClosedDocsPerS(const ServeRun& run) {
  std::vector<double> rates;
  for (const PhaseResult& phase : run.closed) {
    rates.push_back(static_cast<double>(phase.outcomes.size()) / phase.wall_s);
  }
  return Median(rates);
}

int RunWorkload(const Args& args) {
  // The global recorder is on by default and keeps every span under one
  // mutex; it stays off except in the traced measurement.
  obs::GlobalTrace().set_enabled(false);
  SpanLog::Get().BindThread();
  const WorkloadSpec spec = MakeSpec(args.workload);

  // Resolve the kernel backend and start the pool's workers before timing.
  const std::string backend = nn::KernelBackendName();
  const int threads = par::Threads();
  for (int i = 0; i < 3; ++i) {
    par::ParallelFor(static_cast<size_t>(threads) * 64, [](size_t) {});
  }
  std::cout << "# perfbench workload=" << spec.name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << " backend=" << backend << " threads=" << threads
            << " api=\"" << api::Version() << "\"\n";

  // Set-up runs several times; its median is setup_s.
  std::vector<double> setup_s;
  std::optional<Inputs> inputs;
  for (int i = 0; i < 5; ++i) {
    inputs.reset();
    double start = NowUs();
    inputs.emplace(Setup(spec, args.seed, args.seconds, args.candidate,
                         args.workdir));
    setup_s.push_back((NowUs() - start) / 1e6);
  }
  const Inputs& in = *inputs;

  bool correct = true;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      std::cerr << "fsbench: check failed: " << what << "\n";
    }
  };

  double overhead_ratio = 0;
  std::vector<SpanRecord> spans;
  Measured m;
  if (!args.trace) {
    m = MeasureOnce(spec, in, args.seconds, false);
  } else {
    // Untraced reference for the tracing overhead: one build plus one
    // closed-loop round, fixed work every workload repeats.
    WorkloadSpec unit = spec;
    unit.min_builds = 1;
    unit.build_share = 0;
    Measured reference = MeasureOnce(unit, in, args.seconds, true);
    const double untraced_s =
        reference.builds[0].seconds + reference.serve.closed[0].wall_s;
    reference = Measured{};

    obs::GlobalTrace().Clear();
    obs::GlobalTrace().set_enabled(true);
    SpanLog::Get().set_enabled(true);
    SpanLog::Get().BindThread();
    m = MeasureOnce(spec, in, args.seconds, false);
    SpanLog::Get().set_enabled(false);
    obs::GlobalTrace().set_enabled(false);
    spans = SpanLog::Get().Drain();
    const double traced_s = m.builds[0].seconds + m.serve.closed[0].wall_s;
    overhead_ratio = traced_s / untraced_s;
    check(obs::GlobalTrace().dropped() == 0,
          "global trace dropped " +
              std::to_string(obs::GlobalTrace().dropped()) + " spans");
  }

  // Output checks.
  for (const BuildResult& b : m.builds) {
    check(b.micro_f1 == m.builds[0].micro_f1 &&
              b.final_loss == m.builds[0].final_loss,
          "test_micro_f1 / final_loss differ between builds of one run");
  }
  const Totals totals = Count(m.serve, true);
  check(totals.payloads_ok,
        "a served payload differs from api::Extract on the served model");
  check(m.serve.versions_ok, "tenant_version: " + m.serve.version_error);

  std::vector<double> build_s;
  for (const BuildResult& b : m.builds) build_s.push_back(b.seconds);
  const BuildResult& last = m.builds.back();
  std::cout << "# builds=" << m.builds.size() << " synthetics="
            << last.synthetics << " train_steps=" << last.train_steps
            << " test_micro_f1=" << Num(last.micro_f1)
            << " final_loss=" << Num(last.final_loss) << "\n";

  std::cout << "# closed loop per round (docs/s, cpu ms/doc):";
  for (size_t round = 0; round < m.serve.closed.size(); ++round) {
    const PhaseResult& phase = m.serve.closed[round];
    std::cout << " " << Num(static_cast<double>(phase.outcomes.size()) /
                            phase.wall_s)
              << "/" << Num(m.serve.closed_cpu_ms_per_doc[round]);
  }
  std::cout << "\n";

  // Open-loop rates: latency at each, goodput = highest valid rate.
  std::vector<RateReport> rates;
  const RateReport* ref = nullptr;
  const RateReport* best = nullptr;
  for (size_t r = 0; r < spec.rates_rps.size(); ++r) {
    rates.push_back(ReportRate(spec, in, m.serve, r));
  }
  for (const RateReport& rr : rates) {
    std::cout << "# rate " << rr.rps << " rps: windows=" << rr.windows.size()
              << " valid=" << rr.valid_windows << " n=" << rr.samples
              << " pooled p50=" << Num(rr.pooled_p50_ms)
              << "ms p99=" << Num(rr.pooled_p99_ms) << "ms "
              << QuantileName(rr.top_q) << "=" << Num(rr.top_ms)
              << "ms | window medians p50=" << Num(rr.p50_ms)
              << "ms p99=" << Num(rr.p99_ms)
              << "ms lag_p99=" << Num(rr.lag_p99_ms)
              << "ms within_limit=" << Num(rr.within_limit)
              << " backlog_max=" << rr.backlog_max
              << (rr.valid ? " valid" : " over-limit") << "\n";
    if (rr.rps == spec.ref_rps) ref = &rr;
    if (rr.valid) best = &rr;
  }
  const double goodput = best != nullptr ? best->rps * best->within_limit : 0;
  bool ref_supported = ref != nullptr;
  for (const WindowReport& w : ref->windows) {
    ref_supported = ref_supported && w.samples >= 1000;
  }
  check(ref_supported,
        "a reference-rate window has fewer than 1000 samples (p99 unsupported)");
  std::cout << "# latency_p50_ms, latency_p99_ms and quiet_tenant_p99_ms are "
               "medians over "
            << ref->windows.size() << " windows at " << spec.ref_rps
            << " rps (" << ref->samples << " samples in all)\n";
  const int64_t attempted =
      totals.attempted + static_cast<int64_t>(m.builds.size());
  const int64_t failed = totals.failed;

  // What a user of the server sees. On a small shared virtual machine
  // wall-clock latency and throughput move with how much CPU the host
  // steals, far past any useful bound, so they are reported (here and in
  // the traced run) but not bounded; serve_cpu_ms_per_doc is the bounded
  // serving figure.
  const std::vector<Metric> serving = {
      {"throughput_docs_per_s", ClosedDocsPerS(m.serve), "docs/s"},
      {"latency_p50_ms", ref->p50_ms, "ms"},
      {"latency_p99_ms", ref->p99_ms, "ms"},
      {"goodput_rps", goodput, "1/s"},
      {"quiet_tenant_p99_ms", ref->quiet_p99_ms, "ms"},
  };

  if (!args.trace) {
    for (const Metric& metric : serving) {
      std::cout << "# " << metric.name << " = " << Num(metric.value) << " "
                << metric.unit << " (reported, not bounded)\n";
    }
    std::vector<Metric> metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb",
         static_cast<double>(obs::SampleProcessStats().peak_rss_kb) / 1024.0,
         "MB"},
        {"build_s", Median(build_s), "s"},
        {"test_micro_f1", last.micro_f1, "ratio"},
        {"serve_cpu_ms_per_doc", Median(m.serve.closed_cpu_ms_per_doc), "ms"},
    };
    PrintResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
  }

  // Traced run: per-layer metrics from the merged spans.
  TraceAnalysis analysis = AnalyzeTrace(spans, m.start_us, m.end_us);
  check(WriteMergedTrace(args.workdir + "/trace.json", spans),
        "cannot write " + args.workdir + "/trace.json");
  check(analysis.boundary_coverage >= 0.95,
        "boundary spans cover only " + Num(analysis.boundary_coverage) +
            " of the traced wall time");
  auto total_s = [&](const char* name) {
    auto it = analysis.by_name.find(name);
    return it == analysis.by_name.end() ? 0.0 : it->second.total_us / 1e6;
  };
  auto self_s = [&](const char* name) {
    auto it = analysis.by_name.find(name);
    return it == analysis.by_name.end() ? 0.0 : it->second.self_us / 1e6;
  };
  auto count = [&](const char* name) {
    auto it = analysis.by_name.find(name);
    return it == analysis.by_name.end() ? int64_t{0} : it->second.count;
  };
  std::cout << "# self time per span (traced run):\n";
  for (const auto& [name, stats] : analysis.by_name) {
    std::cout << "#   " << name << ": n=" << stats.count
              << " total_s=" << Num(stats.total_us / 1e6)
              << " self_s=" << Num(stats.self_us / 1e6) << "\n";
  }
  const double builds = static_cast<double>(m.builds.size());
  int64_t steps = 0;
  for (const BuildResult& b : m.builds) steps += b.train_steps;
  const int64_t batches =
      m.serve.batches_run >= 0
          ? m.serve.batches_run
          : count("serve.batch") + count("serve.tenant_batch");
  const Totals measured = Count(m.serve, false);
  std::vector<double> submit_us;
  std::vector<double> wait_ms;
  std::vector<double> batches_waited;
  for (const PhaseResult& phase : m.serve.closed) {
    for (const Outcome& o : phase.outcomes) submit_us.push_back(o.submit_us);
  }
  for (const auto& round : m.serve.windows) {
    for (const PhaseResult& phase : round) {
      for (const Outcome& o : phase.outcomes) {
        submit_us.push_back(o.submit_us);
        wait_ms.push_back(o.wait_ms);
        batches_waited.push_back(static_cast<double>(o.batches_waited));
      }
    }
  }
  const double eval_s = total_s("eval.evaluate") / builds;
  const double encode_s =
      self_s("serve.encode") + self_s("serve.tenant_encode");
  const double predict_s =
      self_s("serve.predict") + self_s("serve.tenant_predict");
  const RateReport& at = best != nullptr ? *best : rates.front();
  const double misses = static_cast<double>(measured.ok - measured.result_hits);
  std::vector<Metric> metrics = serving;
  std::vector<Metric> layers = {
      {"doc.read_s", self_s("doc.read") / builds, "s"},
      {"core.augment_s", total_s("core.augment") / builds, "s"},
      {"core.synthetics", static_cast<double>(last.synthetics), "count"},
      {"core.swap_kept_ratio",
       last.swap_generated > 0
           ? static_cast<double>(last.swap_generated) /
                 static_cast<double>(last.swap_generated +
                                     last.swap_discarded_unchanged)
           : 0,
       "ratio"},
      {"model.train_s", total_s("model.train") / builds, "s"},
      {"model.train_step_ms",
       steps > 0 ? self_s("train.sequence_model") * 1e3 /
                       static_cast<double>(steps)
                 : 0,
       "ms"},
      {"model.final_loss", last.final_loss, "loss"},
      {"serve.snapshot_s", total_s("serve.snapshot") / builds, "s"},
      {"eval.evaluate_s", eval_s, "s"},
      {"eval.docs_per_s",
       eval_s > 0 ? static_cast<double>(spec.test_docs) / eval_s : 0,
       "docs/s"},
      {"model.extract_docs_per_s", m.serve.extract_docs_per_s, "docs/s"},
      {"serve.encode_ms_per_batch",
       batches > 0 ? encode_s * 1e3 / static_cast<double>(batches) : 0, "ms"},
      {"serve.predict_ms_per_batch",
       batches > 0 ? predict_s * 1e3 / static_cast<double>(batches) : 0, "ms"},
      {"serve.submit_us_p99", Quantile(submit_us, 0.99), "us"},
      {"serve.wait_ms_p50", Quantile(wait_ms, 0.5), "ms"},
      {"serve.wait_ms_p99", Quantile(wait_ms, 0.99), "ms"},
      {"serve.docs_per_batch",
       batches > 0
           ? static_cast<double>(totals.ok) / static_cast<double>(batches)
           : 0,
       "docs"},
      {"serve.result_hit_ratio",
       measured.ok > 0 ? static_cast<double>(measured.result_hits) /
                             static_cast<double>(measured.ok)
                       : 0,
       "ratio"},
      {"serve.encoded_hit_ratio",
       misses > 0 ? static_cast<double>(measured.encoded_hits_on_miss) / misses
                  : 0,
       "ratio"},
      {"serve.rejected.queue_full", static_cast<double>(totals.queue_full),
       "count"},
      {"serve.rejected.quota", static_cast<double>(totals.quota), "count"},
      {"serve.rejected.deadline", static_cast<double>(totals.deadline),
       "count"},
      {"serve.publish_ms", m.serve.publish_ms, "ms"},
      {"serve.batches_waited_p99", Quantile(batches_waited, 0.99), "batches"},
      {"loadgen.lag_p99_ms", at.lag_p99_ms, "ms"},
      {"loadgen.backlog_max", static_cast<double>(at.backlog_max), "count"},
      {"fail_ratio",
       static_cast<double>(failed) / static_cast<double>(attempted), "ratio"},
      {"obs.trace_overhead_ratio", overhead_ratio, "ratio"},
      {"obs.boundary_coverage", analysis.boundary_coverage, "ratio"},
  };
  metrics.insert(metrics.end(), layers.begin(), layers.end());
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

/// Copies the committed candidate checkpoint to `out` and loads it there.
/// When the committed file no longer matches the candidate model's shapes
/// the library pre-trains a replacement (deterministic: fixed corpus size
/// and seed) into `out`, once per build directory.
int Prepare(const Args& args) {
  if (!std::filesystem::exists(args.candidate_in)) {
    Fail("candidate model checkpoint missing: " + args.candidate_in);
  }
  if (std::filesystem::exists(args.candidate_out)) return 0;
  std::string tmp = args.candidate_out + ".tmp";
  std::filesystem::create_directories(
      std::filesystem::path(args.candidate_out).parent_path());
  std::filesystem::copy_file(args.candidate_in, tmp,
                             std::filesystem::copy_options::overwrite_existing);
  GetOrTrainCachedCandidateModel(tmp);
  if (ReadBytes(tmp) != ReadBytes(args.candidate_in)) {
    std::cerr << "fsbench: " << args.candidate_in
              << " does not match the current candidate model; pre-trained "
                 "a replacement into "
              << args.candidate_out << "\n";
  }
  std::filesystem::rename(tmp, args.candidate_out);
  return 0;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc < 2) Fail("usage: fsbench prepare|run [--flag value]...");
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Fail("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stoi(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--candidate") {
      args.candidate = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--candidate-in") {
      args.candidate_in = value;
    } else if (flag == "--candidate-out") {
      args.candidate_out = value;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (args.seconds < 1) Fail("--seconds must be >= 1");
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args = perfbench::ParseArgs(argc, argv);
  if (args.mode == "prepare") return perfbench::Prepare(args);
  if (args.mode == "run") return perfbench::RunWorkload(args);
  perfbench::Fail("unknown mode '" + args.mode + "'");
}
