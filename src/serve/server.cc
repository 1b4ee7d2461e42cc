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

void AppendU64(std::string& buffer, uint64_t value) {
  char bytes[sizeof(value)];
  std::memcpy(bytes, &value, sizeof(value));
  buffer.append(bytes, sizeof(value));
}

void AppendDouble(std::string& buffer, double value) {
  AppendU64(buffer, std::bit_cast<uint64_t>(value));
}

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
  std::string buffer;
  buffer.reserve(64 + static_cast<size_t>(doc.num_tokens()) * 48);
  buffer += doc.domain();
  buffer += '\x1f';
  AppendDouble(buffer, doc.width());
  AppendDouble(buffer, doc.height());
  for (const Token& token : doc.tokens()) {
    buffer += token.text;
    buffer += '\x1f';
    AppendDouble(buffer, token.box.x_min);
    AppendDouble(buffer, token.box.y_min);
    AppendDouble(buffer, token.box.x_max);
    AppendDouble(buffer, token.box.y_max);
    AppendU64(buffer, static_cast<uint64_t>(token.line));
  }
  for (const EntitySpan& span : doc.annotations()) {
    buffer += span.field;
    buffer += '\x1f';
    AppendU64(buffer, static_cast<uint64_t>(span.first_token));
    AppendU64(buffer, static_cast<uint64_t>(span.num_tokens));
  }
  return Fnv1a64(buffer);
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
