#include "serve/tenant_server.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/parallel.h"
#include "util/logging.h"

namespace fieldswap {
namespace serve {

namespace {

const std::vector<double>& BatchSizeBounds() {
  static const std::vector<double> bounds = {1, 2, 4, 8, 16, 32, 64, 128};
  return bounds;
}

// Adds a per-batch count; zero adds nothing, so idle counters stay absent.
void AddCount(const char* name, size_t count) {
  if (count > 0) obs::CounterAdd(name, static_cast<int64_t>(count));
}

}  // namespace

MultiTenantServer::MultiTenantServer(std::shared_ptr<ModelRegistry> registry,
                                     ServeOptions options)
    : registry_(std::move(registry)),
      options_(std::move(options)),
      // Validate() below rejects negative capacities before any cache use.
      encoded_cache_(static_cast<size_t>(options_.encoded_cache_capacity)),
      result_cache_(static_cast<size_t>(options_.result_cache_capacity)) {
  FS_CHECK(registry_ != nullptr) << "MultiTenantServer needs a ModelRegistry";
  std::string error = options_.Validate();
  FS_CHECK(error.empty()) << error;
  obs::CounterAdd("fieldswap.serve.servers_started");
}

double MultiTenantServer::NowMs() const {
  if (options_.clock_ms) return options_.clock_ms();
  return uptime_.ElapsedMs();
}

ExtractResponse MultiTenantServer::Reject(ServeStatus status,
                                          const std::string& tenant,
                                          const Document& doc,
                                          std::string error) const {
  ExtractResponse response;
  response.status = status;
  response.doc_id = doc.id();
  response.tenant = tenant;
  response.error = std::move(error);
  obs::CounterAdd(std::string("fieldswap.serve.") + ServeStatusName(status));
  return response;
}

int64_t MultiTenantServer::Submit(const std::string& tenant,
                                  const Document& doc, double deadline_ms) {
  // Sample the clock before locking: options_.clock_ms is user-supplied
  // and must never run under mu_ (fslint no-lock-across-callback).
  const double now_ms = NowMs();
  std::lock_guard<util::OrderedMutex> lock(mu_);
  int64_t id = next_id_++;
  if (shutdown_) {
    done_[id] = Reject(ServeStatus::kRejectedShutdown, tenant, doc,
                       "server is shut down");
    return id;
  }
  if (!registry_->Has(tenant)) {
    done_[id] = Reject(
        ServeStatus::kRejectedUnknownTenant, tenant, doc,
        "tenant '" + tenant +
            "' has no published model; publish one to the registry first");
    return id;
  }
  if (total_queued_ >= static_cast<size_t>(options_.queue_capacity)) {
    done_[id] = Reject(
        ServeStatus::kRejectedQueueFull, tenant, doc,
        "admission queue full (capacity " +
            std::to_string(options_.queue_capacity) +
            "); retry after draining or raise ServeOptions.queue_capacity");
    return id;
  }
  TenantState& state = tenants_[tenant];
  const TenantQuota quota = registry_->Quota(tenant);
  if (state.queue.size() >= static_cast<size_t>(quota.queue_capacity)) {
    state.stats.rejected_quota++;
    ExtractResponse response = Reject(
        ServeStatus::kRejectedQuota, tenant, doc,
        "tenant '" + tenant + "' admission quota exhausted (capacity " +
            std::to_string(quota.queue_capacity) +
            "); drain pending requests or raise TenantQuota.queue_capacity");
    response.tenant_version = registry_->ActiveVersion(tenant);
    done_[id] = std::move(response);
    return id;
  }
  const double effective_deadline =
      deadline_ms < 0 ? options_.default_deadline_ms : deadline_ms;
  state.queue.push_back(
      {id, doc, now_ms,
       effective_deadline > 0 ? now_ms + effective_deadline : 0,
       batches_run_});
  state.stats.submitted++;
  total_queued_++;
  obs::CounterAdd("fieldswap.serve.requests");
  obs::GaugeSet("fieldswap.serve.queue_depth",
                static_cast<double>(total_queued_));
  return id;
}

void MultiTenantServer::RunBatchLocked(
    std::unique_lock<util::OrderedMutex>& lock) {
  batch_in_flight_ = true;
  const int64_t batches_before = batches_run_;

  // Turn selection: the first tenant with queued work strictly after the
  // cursor in sorted order, wrapping — the deterministic round-robin.
  auto begin = tenants_.begin(), end = tenants_.end();
  auto turn = tenants_.upper_bound(cursor_);
  for (size_t visited = 0; visited < tenants_.size(); ++visited, ++turn) {
    if (turn == end) turn = begin;
    if (!turn->second.queue.empty()) break;
  }
  FS_CHECK(turn != end && !turn->second.queue.empty())
      << "leader elected with nothing queued";
  const std::string turn_name = turn->first;
  TenantState& turn_state = turn->second;

  // DRR: credit the quantum, serve up to the deficit (capped by max_batch),
  // carry the remainder; an emptied queue forfeits its leftover credit.
  const size_t max_batch = static_cast<size_t>(options_.max_batch);
  turn_state.deficit += registry_->Quota(turn_name).batch_quantum;
  const size_t take =
      std::min({static_cast<size_t>(turn_state.deficit), max_batch,
                turn_state.queue.size()});
  const PublishedVersion active = registry_->ActiveEntry(turn_name);
  FS_CHECK(active.snapshot != nullptr)
      << "tenant '" << turn_name << "' queued work but has no active snapshot";
  FS_CHECK(!options_.int8_inference || active.snapshot->int8_plan() != nullptr)
      << "ServeOptions.int8_inference is set but tenant '" << turn_name
      << "' active snapshot '" << active.snapshot->version()
      << "' has no int8 plan";

  // batch[i] is served as responses[i], tagged with its serving identity.
  std::vector<PendingRequest> batch;
  std::vector<ExtractResponse> responses;
  batch.reserve(max_batch);
  responses.reserve(max_batch);
  auto drain_one = [&](TenantState& state, const std::string& tenant,
                       uint64_t tenant_version) {
    batch.push_back(std::move(state.queue.front()));
    state.queue.pop_front();
    ExtractResponse& response = responses.emplace_back();
    response.tenant = tenant;
    response.tenant_version = tenant_version;
  };
  for (size_t i = 0; i < take; ++i) {
    drain_one(turn_state, turn_name, active.version);
  }
  turn_state.deficit -= static_cast<int64_t>(take);
  if (turn_state.queue.empty()) turn_state.deficit = 0;
  turn_state.stats.turn_batches++;
  cursor_ = turn_name;

  // Work-conserving cross-tenant packing: leftover batch room goes to
  // other tenants whose active snapshot is the SAME object (shared
  // backbone), in round-robin order after the turn tenant. Packed service
  // is a bonus — it charges no one's deficit and can only fill capacity
  // the turn tenant could not use, so it never delays anyone's turn.
  int64_t packed = 0;
  auto scan = turn;
  for (size_t visited = 0;
       visited + 1 < tenants_.size() && batch.size() < max_batch; ++visited) {
    if (++scan == end) scan = begin;
    TenantState& other = scan->second;
    if (other.queue.empty()) continue;
    const PublishedVersion entry = registry_->ActiveEntry(scan->first);
    if (entry.snapshot.get() != active.snapshot.get()) continue;
    while (!other.queue.empty() && batch.size() < max_batch) {
      drain_one(other, scan->first, entry.version);
      other.stats.packed_docs++;
      packed++;
    }
  }
  total_queued_ -= batch.size();
  obs::GaugeSet("fieldswap.serve.queue_depth",
                static_cast<double>(total_queued_));
  const std::shared_ptr<const ModelSnapshot> snapshot = active.snapshot;
  lock.unlock();

  {
    FS_TRACE_SPAN("serve.batch");
    obs::CounterAdd("fieldswap.serve.batches");
    if (packed > 0) obs::CounterAdd("fieldswap.serve.packed_docs", packed);
    obs::HistogramObserve("fieldswap.serve.batch_size",
                          static_cast<double>(batch.size()),
                          BatchSizeBounds());
    double now = NowMs();

    // Triage in batch order: expired deadlines reject, result-cache hits
    // complete immediately, the rest go to the model. Serial cache traffic
    // keeps hit accounting and LRU order deterministic for a fixed
    // submission order. Cache counters are added once per batch.
    std::vector<size_t> live;
    std::vector<uint64_t> keys(batch.size(), 0);
    size_t result_hits = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      const PendingRequest& request = batch[i];
      ExtractResponse& response = responses[i];
      response.snapshot_version = snapshot->version();
      response.doc_id = request.doc.id();
      response.batches_waited = batches_before - request.batches_at_submit;
      obs::HistogramObserve("fieldswap.serve.stage.queue_wait_ms",
                            now - request.submit_ms);
      if (request.deadline_at_ms > 0 && now > request.deadline_at_ms) {
        response.status = ServeStatus::kRejectedDeadline;
        response.error =
            "deadline expired before batching; extend the deadline or "
            "reduce load";
        obs::CounterAdd("fieldswap.serve.rejected_deadline");
        continue;
      }
      keys[i] =
          SnapshotCacheKey(DocContentHash(request.doc), snapshot->sequence());
      std::shared_ptr<const std::vector<EntitySpan>> cached =
          result_cache_.Get(keys[i]);
      if (cached != nullptr) {
        response.spans = *cached;
        response.cache_hit = true;
        response.encoded_cache_hit = true;
        ++result_hits;
        continue;
      }
      live.push_back(i);
    }

    std::vector<std::shared_ptr<const EncodedDoc>> encoded(live.size());
    std::vector<size_t> to_encode;
    for (size_t j = 0; j < live.size(); ++j) {
      encoded[j] = encoded_cache_.Get(keys[live[j]]);
      if (encoded[j] == nullptr) {
        to_encode.push_back(j);
      } else {
        responses[live[j]].encoded_cache_hit = true;
      }
    }
    AddCount("fieldswap.serve.result_cache_hits", result_hits);
    AddCount("fieldswap.serve.result_cache_misses", live.size());
    AddCount("fieldswap.serve.encoded_cache_hits",
             live.size() - to_encode.size());
    AddCount("fieldswap.serve.encoded_cache_misses", to_encode.size());
    if (!to_encode.empty()) {
      FS_TRACE_SPAN("serve.encode");
      obs::Stopwatch encode_timer;
      std::vector<std::shared_ptr<const EncodedDoc>> fresh =
          par::ParallelMap(to_encode.size(), [&](size_t k) {
            const Document& doc = batch[live[to_encode[k]]].doc;
            return std::make_shared<const EncodedDoc>(
                snapshot->model().EncodeDoc(doc));
          });
      for (size_t k = 0; k < to_encode.size(); ++k) {
        encoded[to_encode[k]] = fresh[k];
        encoded_cache_.Put(keys[live[to_encode[k]]], fresh[k]);
      }
      obs::HistogramObserve("fieldswap.serve.stage.encode_ms",
                            encode_timer.ElapsedMs());
    }

    if (!live.empty()) {
      FS_TRACE_SPAN("serve.predict");
      obs::Stopwatch predict_timer;
      std::vector<std::vector<EntitySpan>> predictions =
          par::ParallelMap(live.size(), [&](size_t j) {
            return snapshot->PredictEncoded(*encoded[j],
                                            options_.int8_inference);
          });
      for (size_t j = 0; j < live.size(); ++j) {
        auto shared = std::make_shared<const std::vector<EntitySpan>>(
            std::move(predictions[j]));
        result_cache_.Put(keys[live[j]], shared);
        responses[live[j]].spans = *shared;
      }
      obs::HistogramObserve("fieldswap.serve.stage.predict_ms",
                            predict_timer.ElapsedMs());
    }

    double end_ms = NowMs();
    for (size_t i = 0; i < batch.size(); ++i) {
      responses[i].latency_ms = end_ms - batch[i].submit_ms;
      obs::HistogramObserve("fieldswap.serve.latency_ms",
                            responses[i].latency_ms);
    }
  }

  lock.lock();
  for (size_t i = 0; i < batch.size(); ++i) {
    if (responses[i].status == ServeStatus::kOk) {
      TenantState& state = tenants_[responses[i].tenant];
      state.stats.served++;
      state.stats.max_batches_waited = std::max(
          state.stats.max_batches_waited, responses[i].batches_waited);
    }
    done_[batch[i].id] = std::move(responses[i]);
  }
  batches_run_++;
  batch_in_flight_ = false;
  cv_.notify_all();
}

ExtractResponse MultiTenantServer::Wait(int64_t id) {
  std::unique_lock<util::OrderedMutex> lock(mu_);
  for (;;) {
    auto it = done_.find(id);
    if (it != done_.end()) {
      ExtractResponse response = std::move(it->second);
      done_.erase(it);
      return response;
    }
    if (!batch_in_flight_ && total_queued_ > 0) {
      RunBatchLocked(lock);
      continue;
    }
    cv_.wait(lock);
  }
}

ExtractResponse MultiTenantServer::Extract(const std::string& tenant,
                                           const Document& doc,
                                           double deadline_ms) {
  return Wait(Submit(tenant, doc, deadline_ms));
}

std::vector<ExtractResponse> MultiTenantServer::ExtractBatch(
    const std::string& tenant, const std::vector<Document>& docs) {
  std::vector<ExtractResponse> responses(docs.size());
  // Quota and server-wide bound both admit a full window.
  const size_t window = static_cast<size_t>(std::min(
      registry_->Quota(tenant).queue_capacity, options_.queue_capacity));
  for (size_t start = 0; start < docs.size(); start += window) {
    size_t end = std::min(docs.size(), start + window);
    std::vector<int64_t> ids;
    ids.reserve(end - start);
    for (size_t i = start; i < end; ++i) ids.push_back(Submit(tenant, docs[i]));
    for (size_t i = start; i < end; ++i) responses[i] = Wait(ids[i - start]);
  }
  return responses;
}

void MultiTenantServer::Shutdown() {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  if (shutdown_) return;
  shutdown_ = true;
  for (auto& [name, state] : tenants_) {
    for (const PendingRequest& request : state.queue) {
      done_[request.id] =
          Reject(ServeStatus::kRejectedShutdown, name, request.doc,
                 "server shut down while the request was queued");
    }
    state.queue.clear();
    state.deficit = 0;
  }
  total_queued_ = 0;
  obs::GaugeSet("fieldswap.serve.queue_depth", 0);
  cv_.notify_all();
}

int MultiTenantServer::queue_depth(const std::string& tenant) const {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : static_cast<int>(it->second.queue.size());
}

TenantStats MultiTenantServer::stats(const std::string& tenant) const {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? TenantStats{} : it->second.stats;
}

int64_t MultiTenantServer::batches_run() const {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  return batches_run_;
}

}  // namespace serve
}  // namespace fieldswap
