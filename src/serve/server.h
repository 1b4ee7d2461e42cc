#ifndef FIELDSWAP_SERVE_SERVER_H_
#define FIELDSWAP_SERVE_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "doc/document.h"
#include "serve/cache.h"
#include "serve/snapshot.h"

namespace fieldswap {
namespace serve {

/// Why a request did or did not produce spans.
enum class ServeStatus {
  kOk = 0,
  /// The server-wide admission queue (ServeOptions.queue_capacity) was at
  /// capacity when the request arrived. The server never blocks a
  /// submitter; shed load is reported immediately.
  kRejectedQueueFull,
  /// The request's deadline expired before a batch picked it up.
  kRejectedDeadline,
  /// The server was shut down while the request was queued (or before it
  /// was submitted).
  kRejectedShutdown,
  /// The tenant's admission quota was exhausted (multi-tenant serving,
  /// serve/tenant_server.h). Backpressure is per tenant: one tenant at its
  /// quota never blocks admission for the others.
  kRejectedQuota,
  /// The request named a tenant the registry has never published a model
  /// for (serve/registry.h).
  kRejectedUnknownTenant,
};

/// Human-readable name of a status ("ok", "rejected_queue_full", ...).
const char* ServeStatusName(ServeStatus status);

/// Outcome of one extraction request.
struct ExtractResponse {
  ServeStatus status = ServeStatus::kOk;
  /// Predicted spans; meaningful only when status == kOk. Bit-identical to
  /// SequenceLabelingModel::Predict on the same snapshot and document.
  std::vector<EntitySpan> spans;
  /// Version label of the snapshot that served (or rejected) the request.
  std::string snapshot_version;
  std::string doc_id;
  /// True when the full prediction was served from the result cache.
  bool cache_hit = false;
  /// True when the document encoding was reused from the encoded-doc cache
  /// (implied true when cache_hit is true).
  bool encoded_cache_hit = false;
  /// Submit-to-completion time. Observability only — never consulted by
  /// the extraction path, so it does not affect determinism.
  double latency_ms = 0;
  /// Actionable description for rejected requests, empty on kOk.
  std::string error;
  /// The tenant that submitted the request; empty on the single-tenant
  /// ExtractionServer.
  std::string tenant;
  /// Registry version of the tenant snapshot that served the request; 0 on
  /// the single-tenant ExtractionServer.
  uint64_t tenant_version = 0;
  /// Whole batches that ran between this request's admission and the batch
  /// that served it. Unlike latency_ms this is a *deterministic* fairness
  /// measure under a deterministic submission order, so tests and benches
  /// can assert scheduling bounds exactly (tests/registry_test.cc).
  int64_t batches_waited = 0;
};

/// Configuration of the serving engine (MultiTenantServer, and the
/// ExtractionServer facade over it). All knobs have serving-friendly
/// defaults; Validate() catches nonsensical combinations with an actionable
/// message before the server accepts traffic.
struct ServeOptions {
  /// Most documents coalesced into one encode/predict batch.
  int max_batch = 16;
  /// Server-wide admission bound: a submit finding this many requests
  /// queued across all tenants is rejected with kRejectedQueueFull rather
  /// than blocking. Checked before the per-tenant TenantQuota.
  int queue_capacity = 64;
  /// LRU capacity (entries) of the encoded-document cache; 0 disables.
  int encoded_cache_capacity = 256;
  /// LRU capacity (entries) of the memoized-prediction cache; 0 disables.
  int result_cache_capacity = 256;
  /// Default per-request deadline in milliseconds; 0 = no deadline.
  double default_deadline_ms = 0;
  /// Serve with the snapshot's int8-quantized inference plan instead of the
  /// float forward. Requires snapshots built with with_int8_plan=true
  /// (FS_CHECKed at construction and on every SwapSnapshot). Responses stay
  /// deterministic, but differ from the float path by the quantization
  /// error (bounded by the golden-corpus F1 gate in tests/kernels_test.cc).
  bool int8_inference = false;
  /// Injectable monotonic clock (milliseconds). Defaults to server uptime.
  /// Tests substitute a fake clock to exercise deadline rejection
  /// deterministically.
  std::function<double()> clock_ms;

  /// Empty string when valid, else an actionable error message.
  std::string Validate() const;
};

/// Content hash of everything extraction depends on: domain, page geometry,
/// token texts/boxes/line ids, and annotations. The document id is
/// deliberately excluded (it never reaches the model), so re-submissions of
/// the same page under fresh ids still hit the caches.
uint64_t DocContentHash(const Document& doc);

/// The serving engine's cache key: folds the snapshot sequence into the
/// content hash so entries from a retired snapshot can never match
/// requests served by its replacement — and so tenants sharing one
/// backbone snapshot (serve/tenant_server.h) share cache entries.
uint64_t SnapshotCacheKey(uint64_t content_hash, uint64_t snapshot_sequence);

class MultiTenantServer;

/// Batched, deterministic extraction service for one model: a one-tenant
/// facade over MultiTenantServer (serve/tenant_server.h), which does the
/// queueing, batching, caching, deadlines and shutdown. The model is tenant
/// "" of a private ModelRegistry with quota {queue_capacity, max_batch}, so
/// batches take min(max_batch, queued) documents in admission order.
/// Responses are bit-identical to `snapshot->model().Predict(doc)` (or the
/// int8 prediction when int8_inference is set) at any FIELDSWAP_THREADS,
/// batch size and submitter interleaving (tests/serve_test.cc), and carry
/// an empty `tenant` and `tenant_version` 0.
///
/// SwapSnapshot publishes a replacement between batches: in-flight batches
/// finish on their snapshot, and cache keys include the snapshot sequence,
/// so a swap never serves stale entries. The registry lineage is
/// append-only, so swapped-out snapshots live as long as the server.
class ExtractionServer {
 public:
  ExtractionServer(std::shared_ptr<const ModelSnapshot> snapshot,
                   ServeOptions options = {});
  ~ExtractionServer();

  ExtractionServer(const ExtractionServer&) = delete;
  ExtractionServer& operator=(const ExtractionServer&) = delete;

  /// Enqueues a document. Never blocks: a full queue (or a shut-down
  /// server) completes the request immediately with a rejection.
  /// `deadline_ms` overrides options.default_deadline_ms for this request;
  /// 0 = no deadline, negative = use the default. Returns a ticket for
  /// Wait().
  int64_t Submit(const Document& doc, double deadline_ms = -1);

  /// Blocks until the request's response is available and returns it
  /// (each ticket can be claimed once). Callers waiting here collectively
  /// drive the batcher; see MultiTenantServer.
  ExtractResponse Wait(int64_t id);

  /// Submit + Wait for a single document.
  ExtractResponse Extract(const Document& doc, double deadline_ms = -1);

  /// Runs a whole corpus through the queue/batch machinery, submitting in
  /// windows of the queue capacity so no request is rejected for queue
  /// space. Responses are returned in input order.
  std::vector<ExtractResponse> ExtractBatch(const std::vector<Document>& docs);

  /// Atomically replaces the served snapshot (zero downtime: concurrent
  /// requests are never rejected or blocked by a swap).
  void SwapSnapshot(std::shared_ptr<const ModelSnapshot> snapshot);

  /// The snapshot new batches will use.
  std::shared_ptr<const ModelSnapshot> snapshot() const;

  /// Rejects all queued requests with kRejectedShutdown, wakes all waiters,
  /// and makes further Submits fail fast. Idempotent.
  void Shutdown();

  /// Requests admitted but not yet picked up by a batch.
  int queue_depth() const;

  const EncodedDocCache& encoded_cache() const;
  const LruCache<std::vector<EntitySpan>>& result_cache() const;

 private:
  std::unique_ptr<MultiTenantServer> engine_;
};

}  // namespace serve
}  // namespace fieldswap

#endif  // FIELDSWAP_SERVE_SERVER_H_
