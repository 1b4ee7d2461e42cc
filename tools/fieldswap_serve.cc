// fieldswap_serve — serve a document corpus through the batched
// ExtractionServer, or a fleet of tenants through the multi-tenant
// registry server (the same engine; ExtractionServer is its one-tenant
// facade).
//
// Documents come from any registered corpus format — native .fsc, .jsonl,
// or a .synth generator spec, auto-identified or forced with --format
// (--input corpus.fsc, or '-' for JSONL on stdin) — or are generated
// synthetically (--generate N). The model is
// loaded from a checkpoint (--model ckpt.bin, paired with --domain) or
// quick-trained in-process. One JSON object per document goes to stdout;
// all timings and serving statistics go to stderr, so stdout is
// byte-identical for a fixed corpus and seed at any FIELDSWAP_THREADS or
// batch size (scripts/check_determinism.sh relies on this).
//
// With --tenant-manifest, the tool instead publishes one model per tenant
// into a serve::ModelRegistry and routes interleaved traffic through a
// MultiTenantServer: every stdout line gains "tenant" and
// "tenant_version" keys, responses print in submission order (round-robin
// across tenants, or a seed-deterministic shuffle with --order shuffled),
// and per-tenant serving statistics land on stderr. The manifest is JSON:
//
//   {"tenants": [
//     {"name": "acme",   "domain": "invoices", "seed": 11},
//     {"name": "globex", "domain": "earnings", "seed": 12,
//      "queue_capacity": 32, "batch_quantum": 8}]}
//
// (per-tenant keys: name required; domain/seed/generate/train-docs/
// train-steps default to the corresponding flags; model names a
// checkpoint to load instead of quick-training; queue_capacity and
// batch_quantum override the tenant's admission quota.)
//
//   $ fieldswap_serve --domain earnings --generate 12 --batch 4
//   $ fieldswap_serve --input corpus.jsonl --model ckpt.bin --repeat 3
//   $ fieldswap_serve --tenant-manifest tenants.json --order shuffled

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/fieldswap_api.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/timing.h"
#include "util/argparse.h"
#include "util/json.h"
#include "util/rng.h"

namespace {

using fieldswap::Document;
using fieldswap::serve::ExtractResponse;

std::string EscapeJson(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string ResponseToJson(const Document& doc,
                           const ExtractResponse& response) {
  std::ostringstream os;
  os << "{\"doc\": \"" << EscapeJson(response.doc_id) << "\", \"status\": \""
     << fieldswap::serve::ServeStatusName(response.status) << "\"";
  if (!response.tenant.empty()) {
    os << ", \"tenant\": \"" << EscapeJson(response.tenant)
       << "\", \"tenant_version\": " << response.tenant_version;
  }
  if (!response.error.empty()) {
    os << ", \"error\": \"" << EscapeJson(response.error) << "\"";
  }
  os << ", \"spans\": [";
  for (size_t i = 0; i < response.spans.size(); ++i) {
    const fieldswap::EntitySpan& span = response.spans[i];
    if (i > 0) os << ", ";
    os << "{\"field\": \"" << EscapeJson(span.field) << "\", \"text\": \""
       << EscapeJson(doc.TextOf(span)) << "\", \"first_token\": "
       << span.first_token << ", \"num_tokens\": " << span.num_tokens << "}";
  }
  os << "]}";
  return os.str();
}

/// One tenant from the --tenant-manifest file, with flag defaults already
/// folded in.
struct TenantSetup {
  std::string name;
  std::string domain;
  std::string model_path;  // empty: quick-train in-process
  uint64_t seed = 0;
  int generate = 0;
  int train_docs = 0;
  int train_steps = 0;
  int queue_capacity = 0;  // 0: registry default
  int batch_quantum = 0;   // 0: registry default
};

int IntField(const fieldswap::util::JsonValue& object, const std::string& key,
             int fallback) {
  const fieldswap::util::JsonValue* field = object.Find(key);
  return field != nullptr && field->is_number()
             ? static_cast<int>(field->number_value())
             : fallback;
}

std::string StringField(const fieldswap::util::JsonValue& object,
                        const std::string& key, const std::string& fallback) {
  const fieldswap::util::JsonValue* field = object.Find(key);
  return field != nullptr && field->is_string() ? field->string_value()
                                                : fallback;
}

/// Parses the tenant manifest; empty vector (with a message on stderr)
/// when the file is unreadable or malformed.
std::vector<TenantSetup> ParseTenantManifest(
    const std::string& path, const std::string& default_domain,
    int default_seed, int default_generate, int default_train_docs,
    int default_train_steps) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "fieldswap_serve: cannot read tenant manifest " << path
              << "\n";
    return {};
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::optional<fieldswap::util::JsonValue> parsed =
      fieldswap::util::JsonValue::Parse(text);
  const fieldswap::util::JsonValue* tenants =
      parsed.has_value() ? parsed->Find("tenants") : nullptr;
  if (tenants == nullptr || !tenants->is_array() ||
      tenants->array_items().empty()) {
    std::cerr << "fieldswap_serve: tenant manifest " << path
              << " must be a JSON object with a non-empty \"tenants\" "
                 "array\n";
    return {};
  }
  std::vector<TenantSetup> setups;
  for (const fieldswap::util::JsonValue& entry : tenants->array_items()) {
    TenantSetup setup;
    setup.name = StringField(entry, "name", "");
    if (setup.name.empty()) {
      std::cerr << "fieldswap_serve: every manifest tenant needs a name\n";
      return {};
    }
    setup.domain = StringField(entry, "domain", default_domain);
    setup.model_path = StringField(entry, "model", "");
    setup.seed = static_cast<uint64_t>(IntField(entry, "seed", default_seed));
    setup.generate = IntField(entry, "generate", default_generate);
    setup.train_docs = IntField(entry, "train_docs", default_train_docs);
    setup.train_steps = IntField(entry, "train_steps", default_train_steps);
    setup.queue_capacity = IntField(entry, "queue_capacity", 0);
    setup.batch_quantum = IntField(entry, "batch_quantum", 0);
    setups.push_back(std::move(setup));
  }
  return setups;
}

/// A fresh model for `domain`: loaded from `model_path`, or quick-trained
/// on a generated corpus when the path is empty. Nullopt (with a message
/// on stderr) when the checkpoint does not load.
std::optional<fieldswap::SequenceLabelingModel> ReadyModel(
    const std::string& domain, const std::string& model_path, uint64_t seed,
    int train_docs, int train_steps, const std::string& id_prefix) {
  fieldswap::SequenceLabelingModel model = fieldswap::api::NewModel(domain);
  if (!model_path.empty()) {
    if (fieldswap::api::LoadModel(model_path, model)) return model;
    std::cerr << "fieldswap_serve: cannot load checkpoint " << model_path
              << " (wrong domain or config?)\n";
    return std::nullopt;
  }
  std::vector<Document> train_corpus = fieldswap::GenerateCorpus(
      fieldswap::SpecByName(domain), train_docs, seed, id_prefix + "-train");
  fieldswap::TrainOptions train;
  train.total_steps = train_steps;
  train.validate_every = std::min(train.validate_every, train_steps);
  train.seed = seed ^ 0x5eedULL;
  fieldswap::api::Train(model, train_corpus, {}, train);
  return model;
}

/// The closing stderr summary, one line in both modes; with --stats also
/// the metrics registry and span profile. Serve runs become observable
/// without FS_METRICS_FILE/FS_TRACE_FILE plumbing: one self-describing
/// JSON object on stderr.
void PrintSummary(int served, double elapsed_ms, bool stats) {
  fieldswap::obs::MetricsRegistry& metrics = fieldswap::obs::GlobalMetrics();
  std::cerr << "fieldswap_serve: " << served << " responses in " << elapsed_ms
            << " ms (" << (elapsed_ms > 0 ? served * 1000.0 / elapsed_ms : 0)
            << " docs/s), batches="
            << metrics.CounterValue("fieldswap.serve.batches")
            << ", result_cache_hits="
            << metrics.CounterValue("fieldswap.serve.result_cache_hits")
            << ", encoded_cache_hits="
            << metrics.CounterValue("fieldswap.serve.encoded_cache_hits")
            << "\n";
  if (!stats) return;
  fieldswap::obs::PublishProcessGauges();
  std::cerr << "{\"schema_version\": 1, \"metrics\": " << metrics.ExportJson()
            << ", \"profile\": "
            << fieldswap::obs::BuildGlobalProfile().ToJson() << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  namespace api = fieldswap::api;
  namespace obs = fieldswap::obs;
  namespace serve = fieldswap::serve;
  namespace util = fieldswap::util;

  util::ArgParser args(
      "fieldswap_serve",
      "Serve a JSONL corpus through the batched extraction server "
      "(responses to stdout, timings to stderr).");
  std::string domain, input, corpus_format, model_path, kernel_backend,
      tenant_manifest, order;
  int generate = 0, batch = 0, queue = 0, train_docs = 0, train_steps = 0,
      seed = 0, repeat = 0;
  double deadline_ms = 0;
  bool stats = false, int8 = false, list_kernel_backends = false,
       list_formats = false;
  args.AddString("domain", "invoices",
                 "synthetic domain (invoices, fara, fcc_forms, "
                 "brokerage_statements, earnings, loan_payments)",
                 &domain);
  args.AddString("input", "",
                 "corpus to serve — native .fsc, .jsonl, or .synth spec, "
                 "auto-identified ('-' reads JSONL from stdin; empty "
                 "generates --generate synthetic documents)",
                 &input);
  args.AddString("format", "",
                 "corpus format of --input (native, jsonl, synthetic); "
                 "empty auto-identifies by magic bytes, then extension",
                 &corpus_format);
  args.AddBool("list-formats",
               "print the registered corpus formats and exit", &list_formats);
  args.AddString("model", "",
                 "checkpoint to load (must match --domain); empty "
                 "quick-trains a model in-process",
                 &model_path);
  args.AddInt("generate", 8, "documents to generate when --input is empty",
              &generate);
  args.AddInt("batch", 16, "max documents coalesced per batch", &batch);
  args.AddInt("queue", 64, "server-wide admission queue capacity", &queue);
  args.AddDouble("deadline-ms", 0, "per-request deadline (0 = none)",
                 &deadline_ms);
  args.AddInt("train-docs", 24,
              "training corpus size for the in-process model", &train_docs);
  args.AddInt("train-steps", 120,
              "training steps for the in-process model", &train_steps);
  args.AddInt("seed", 17, "corpus and training seed", &seed);
  args.AddInt("repeat", 1,
              "serve the corpus this many times (repeats exercise the "
              "encoded-doc and result caches)",
              &repeat);
  args.AddBool("stats",
               "dump the metrics registry + span profile as one JSON object "
               "on stderr at exit (stdout stays the deterministic JSONL "
               "response stream)",
               &stats);
  args.AddString("kernel-backend", "",
                 "compute kernel backend (scalar, avx2, neon; empty/'auto' "
                 "picks the best available, same as FIELDSWAP_KERNEL_BACKEND)",
                 &kernel_backend);
  args.AddBool("list-kernel-backends",
               "print the kernel backends usable in this process (best "
               "first) and exit",
               &list_kernel_backends);
  args.AddBool("int8",
               "serve from the snapshot's int8-quantized weights instead of "
               "the float forward (per-tensor symmetric quantization, built "
               "at snapshot time)",
               &int8);
  args.AddString("tenant-manifest", "",
                 "JSON manifest of tenants to serve through the multi-tenant "
                 "registry server (see the header comment for the format); "
                 "each response line gains tenant/tenant_version keys",
                 &tenant_manifest);
  args.AddString("order", "roundrobin",
                 "submission order across tenants: roundrobin, or shuffled "
                 "(seed-deterministic) — multi-tenant mode only",
                 &order);
  if (!args.Parse(argc, argv)) return args.help_requested() ? 0 : 2;

  if (list_kernel_backends) {
    for (const std::string& name : fieldswap::nn::AvailableKernelBackends()) {
      std::cout << name << "\n";
    }
    return 0;
  }
  if (list_formats) {
    for (const fieldswap::doc::FormatInfo& info : api::ListFormats()) {
      std::cout << info.name << "\t" << info.extension << "\t"
                << (info.can_write ? "read-write" : "read-only") << "\t"
                << info.description << "\n";
    }
    return 0;
  }
  if (!kernel_backend.empty() &&
      !fieldswap::nn::SetKernelBackend(kernel_backend)) {
    std::cerr << "fieldswap_serve: kernel backend '" << kernel_backend
              << "' is not available here (try --list-kernel-backends)\n";
    return 2;
  }
  std::cerr << "fieldswap_serve: kernel backend "
            << fieldswap::nn::KernelBackendName()
            << (int8 ? ", int8 inference" : "") << "\n";
  serve::ServeOptions options;
  options.max_batch = batch;
  options.queue_capacity = queue;
  options.default_deadline_ms = deadline_ms;
  options.int8_inference = int8;

  // ---- Multi-tenant mode ---------------------------------------------------
  if (!tenant_manifest.empty()) {
    if (!input.empty()) {
      std::cerr << "fieldswap_serve: --tenant-manifest generates per-tenant "
                   "corpora; it cannot be combined with --input\n";
      return 2;
    }
    if (order != "roundrobin" && order != "shuffled") {
      std::cerr << "fieldswap_serve: --order must be roundrobin or shuffled\n";
      return 2;
    }
    std::vector<TenantSetup> setups = ParseTenantManifest(
        tenant_manifest, domain, seed, generate, train_docs, train_steps);
    if (setups.empty()) return 2;

    obs::Stopwatch setup_timer;
    std::shared_ptr<serve::ModelRegistry> registry = api::NewRegistry();
    std::vector<std::vector<Document>> corpora;
    for (const TenantSetup& tenant : setups) {
      std::optional<fieldswap::SequenceLabelingModel> model =
          ReadyModel(tenant.domain, tenant.model_path, tenant.seed,
                     tenant.train_docs, tenant.train_steps, tenant.name);
      if (!model.has_value()) return 2;
      api::PublishModel(*registry, tenant.name, std::move(*model), "", int8);
      serve::TenantQuota quota = registry->Quota(tenant.name);
      if (tenant.queue_capacity > 0) {
        quota.queue_capacity = tenant.queue_capacity;
      }
      if (tenant.batch_quantum > 0) quota.batch_quantum = tenant.batch_quantum;
      registry->SetQuota(tenant.name, quota);
      corpora.push_back(fieldswap::GenerateCorpus(
          fieldswap::SpecByName(tenant.domain), tenant.generate,
          tenant.seed ^ 0x5e7feULL, tenant.name + "-serve"));
    }
    std::cerr << "fieldswap_serve: " << setups.size() << " tenants ready in "
              << setup_timer.ElapsedMs() << " ms\n";

    std::unique_ptr<serve::MultiTenantServer> server =
        api::ServeTenants(registry, options);

    // Submission plan: round-robin interleave across tenants, optionally
    // shuffled with a seed-deterministic Fisher-Yates. The plan (and so
    // stdout) depends only on the manifest, --seed, and --order — never on
    // thread count or batch size.
    std::vector<std::pair<size_t, size_t>> plan;
    size_t max_docs = 0;
    for (const std::vector<Document>& corpus : corpora) {
      max_docs = std::max(max_docs, corpus.size());
    }
    for (size_t d = 0; d < max_docs; ++d) {
      for (size_t t = 0; t < corpora.size(); ++t) {
        if (d < corpora[t].size()) plan.push_back({t, d});
      }
    }
    if (order == "shuffled") {
      fieldswap::Rng rng(static_cast<uint64_t>(seed) ^ 0x0dde5ULL);
      rng.Shuffle(plan);
    }

    obs::Stopwatch serve_timer;
    int served = 0;
    for (int round = 0; round < repeat; ++round) {
      std::vector<int64_t> ids;
      ids.reserve(plan.size());
      for (const auto& [t, d] : plan) {
        ids.push_back(server->Submit(setups[t].name, corpora[t][d]));
      }
      for (size_t i = 0; i < ids.size(); ++i) {
        const auto& [t, d] = plan[i];
        std::cout << ResponseToJson(corpora[t][d], server->Wait(ids[i]))
                  << "\n";
        ++served;
      }
    }
    double elapsed_ms = serve_timer.ElapsedMs();

    for (const TenantSetup& tenant : setups) {
      fieldswap::serve::TenantStats tenant_stats =
          server->stats(tenant.name);
      std::cerr << "fieldswap_serve: tenant " << tenant.name
                << ": served=" << tenant_stats.served
                << ", rejected_quota=" << tenant_stats.rejected_quota
                << ", turn_batches=" << tenant_stats.turn_batches
                << ", packed_docs=" << tenant_stats.packed_docs
                << ", max_batches_waited=" << tenant_stats.max_batches_waited
                << "\n";
    }
    PrintSummary(served, elapsed_ms, stats);
    return 0;
  }

  fieldswap::DomainSpec spec = fieldswap::SpecByName(domain);
  uint64_t seed64 = static_cast<uint64_t>(seed);

  // The corpus to serve.
  std::vector<Document> docs;
  if (input.empty()) {
    docs = fieldswap::GenerateCorpus(spec, generate, seed64 ^ 0x5e7feULL,
                                     domain + "-serve");
  } else if (input == "-") {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      std::optional<Document> doc = fieldswap::DocumentFromJson(line);
      if (!doc.has_value()) {
        std::cerr << "fieldswap_serve: unparsable JSONL document on line "
                  << (docs.size() + 1) << "\n";
        return 2;
      }
      docs.push_back(std::move(*doc));
    }
  } else {
    // Any registered format works here: the driver registry sniffs the
    // file (or honors --format) and hands back a reader; serving then
    // materializes it because the server replays the corpus --repeat
    // times.
    fieldswap::doc::CorpusStatus corpus_status;
    std::unique_ptr<fieldswap::doc::CorpusReader> reader =
        api::OpenCorpus(input, corpus_format, &corpus_status);
    if (reader == nullptr) {
      std::cerr << "fieldswap_serve: cannot open corpus " << input << ": "
                << corpus_status.ToString() << "\n";
      return 2;
    }
    docs = fieldswap::doc::ReadAllDocuments(*reader);
  }
  if (docs.empty()) {
    std::cerr << "fieldswap_serve: no documents to serve\n";
    return 2;
  }

  // The model: checkpoint, or a quick in-process train.
  obs::Stopwatch setup_timer;
  std::optional<fieldswap::SequenceLabelingModel> model = ReadyModel(
      domain, model_path, seed64, train_docs, train_steps, domain);
  if (!model.has_value()) return 2;
  std::cerr << "fieldswap_serve: model ready in " << setup_timer.ElapsedMs()
            << " ms (" << (model_path.empty() ? "in-process training"
                                              : model_path)
            << ")\n";
  std::unique_ptr<serve::ExtractionServer> server =
      api::Serve(std::move(*model), options);

  obs::Stopwatch serve_timer;
  int served = 0;
  for (int round = 0; round < repeat; ++round) {
    std::vector<ExtractResponse> responses = server->ExtractBatch(docs);
    for (size_t i = 0; i < responses.size(); ++i) {
      std::cout << ResponseToJson(docs[i], responses[i]) << "\n";
      ++served;
    }
  }
  PrintSummary(served, serve_timer.ElapsedMs(), stats);
  return 0;
}
