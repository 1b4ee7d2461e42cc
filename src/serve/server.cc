#include "serve/server.h"

#include <bit>
#include <cstring>
#include <string>
#include <utility>

#include "serve/registry.h"
#include "serve/tenant_server.h"
#include "util/hash.h"
#include "util/logging.h"

namespace fieldswap {
namespace serve {

namespace {

// The ExtractionServer facade's one tenant in its private registry.
constexpr char kDefaultTenant[] = "";

/// Running FNV-1a over the fields of a document, in the byte layout of
/// "text \x1f" strings and native-endian 8-byte numbers.
class ContentHasher {
 public:
  void Text(std::string_view text) {
    h_ = Fnv1a64Update(h_, text);
    h_ = Fnv1a64Update(h_, std::string_view("\x1f", 1));
  }
  void U64(uint64_t value) {
    char bytes[sizeof(value)];
    std::memcpy(bytes, &value, sizeof(value));
    h_ = Fnv1a64Update(h_, std::string_view(bytes, sizeof(value)));
  }
  void Double(double value) { U64(std::bit_cast<uint64_t>(value)); }
  uint64_t hash() const { return h_; }

 private:
  uint64_t h_ = kFnv1a64Seed;
};

}  // namespace

uint64_t SnapshotCacheKey(uint64_t content_hash, uint64_t snapshot_sequence) {
  return content_hash ^ (snapshot_sequence * 0x9e3779b97f4a7c15ULL);
}

const char* ServeStatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kRejectedQueueFull:
      return "rejected_queue_full";
    case ServeStatus::kRejectedDeadline:
      return "rejected_deadline";
    case ServeStatus::kRejectedShutdown:
      return "rejected_shutdown";
    case ServeStatus::kRejectedQuota:
      return "rejected_quota";
    case ServeStatus::kRejectedUnknownTenant:
      return "rejected_unknown_tenant";
  }
  return "unknown";
}

std::string ServeOptions::Validate() const {
  if (max_batch < 1) {
    return "ServeOptions.max_batch is " + std::to_string(max_batch) +
           "; it must be >= 1 (default 16)";
  }
  if (queue_capacity < 1) {
    return "ServeOptions.queue_capacity is " + std::to_string(queue_capacity) +
           "; it must be >= 1 (default 64)";
  }
  if (encoded_cache_capacity < 0) {
    return "ServeOptions.encoded_cache_capacity is " +
           std::to_string(encoded_cache_capacity) +
           "; it must be >= 0 (0 disables the cache, default 256)";
  }
  if (result_cache_capacity < 0) {
    return "ServeOptions.result_cache_capacity is " +
           std::to_string(result_cache_capacity) +
           "; it must be >= 0 (0 disables the cache, default 256)";
  }
  if (default_deadline_ms < 0) {
    return "ServeOptions.default_deadline_ms is " +
           std::to_string(default_deadline_ms) +
           "; it must be >= 0 (0 means no deadline)";
  }
  return "";
}

uint64_t DocContentHash(const Document& doc) {
  ContentHasher hasher;
  hasher.Text(doc.domain());
  hasher.Double(doc.width());
  hasher.Double(doc.height());
  for (const Token& token : doc.tokens()) {
    hasher.Text(token.text);
    hasher.Double(token.box.x_min);
    hasher.Double(token.box.y_min);
    hasher.Double(token.box.x_max);
    hasher.Double(token.box.y_max);
    hasher.U64(static_cast<uint64_t>(token.line));
  }
  for (const EntitySpan& span : doc.annotations()) {
    hasher.Text(span.field);
    hasher.U64(static_cast<uint64_t>(span.first_token));
    hasher.U64(static_cast<uint64_t>(span.num_tokens));
  }
  return hasher.hash();
}

ExtractionServer::ExtractionServer(
    std::shared_ptr<const ModelSnapshot> snapshot, ServeOptions options)
    : engine_(std::make_unique<MultiTenantServer>(
          std::make_shared<ModelRegistry>(), std::move(options))) {
  const ServeOptions& engine_options = engine_->options();
  engine_->registry()->SetQuota(
      kDefaultTenant,
      {engine_options.queue_capacity, engine_options.max_batch});
  SwapSnapshot(std::move(snapshot));
}

ExtractionServer::~ExtractionServer() = default;

int64_t ExtractionServer::Submit(const Document& doc, double deadline_ms) {
  return engine_->Submit(kDefaultTenant, doc, deadline_ms);
}

ExtractResponse ExtractionServer::Wait(int64_t id) {
  ExtractResponse response = engine_->Wait(id);
  response.tenant_version = 0;
  return response;
}

ExtractResponse ExtractionServer::Extract(const Document& doc,
                                          double deadline_ms) {
  return Wait(Submit(doc, deadline_ms));
}

std::vector<ExtractResponse> ExtractionServer::ExtractBatch(
    const std::vector<Document>& docs) {
  std::vector<ExtractResponse> responses =
      engine_->ExtractBatch(kDefaultTenant, docs);
  for (ExtractResponse& response : responses) response.tenant_version = 0;
  return responses;
}

void ExtractionServer::SwapSnapshot(
    std::shared_ptr<const ModelSnapshot> snapshot) {
  FS_CHECK(snapshot != nullptr) << "ExtractionServer needs a model snapshot";
  FS_CHECK(!engine_->options().int8_inference ||
           snapshot->int8_plan() != nullptr)
      << "ServeOptions.int8_inference is set but snapshot '"
      << snapshot->version()
      << "' has no int8 plan; build it with with_int8_plan=true";
  engine_->registry()->Publish(kDefaultTenant, std::move(snapshot));
}

std::shared_ptr<const ModelSnapshot> ExtractionServer::snapshot() const {
  return engine_->registry()->Active(kDefaultTenant);
}

void ExtractionServer::Shutdown() { engine_->Shutdown(); }

int ExtractionServer::queue_depth() const {
  return engine_->queue_depth(kDefaultTenant);
}

const EncodedDocCache& ExtractionServer::encoded_cache() const {
  return engine_->encoded_cache();
}

const LruCache<std::vector<EntitySpan>>& ExtractionServer::result_cache()
    const {
  return engine_->result_cache();
}

}  // namespace serve
}  // namespace fieldswap
