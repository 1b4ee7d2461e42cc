#ifndef FIELDSWAP_PERFBENCH_LOADGEN_H_
#define FIELDSWAP_PERFBENCH_LOADGEN_H_

// Load generation against a server that has no thread of its own: a batch
// runs only inside some caller's Wait, so every submitted ticket is handed
// to a waiter thread that blocks in Wait for it.
//
// Open loop: one submitter sends on a precomputed schedule regardless of
// completions, and each request is timed from the moment it was due, so a
// stall also charges the requests queued behind it. Closed loop: each
// client submits a window of requests and waits for all of them before
// sending more.

#include <cstdint>
#include <functional>
#include <vector>

#include "api/fieldswap_api.h"

namespace perfbench {

struct Arrival {
  double due_us = 0;  // offset from the phase start (ignored in closed loop)
  int doc = 0;        // index into the document pool
  int tenant = 0;     // index into the workload's tenant list
};

/// What the benchmark keeps of one response.
struct Outcome {
  double latency_ms = 0;  // due (open loop) or submit (closed) to Wait return
  double lag_ms = 0;      // submit start minus due time (open loop)
  double submit_us = 0;   // duration of the Submit call
  double wait_ms = 0;     // duration of the Wait call
  fieldswap::serve::ServeStatus status = fieldswap::serve::ServeStatus::kOk;
  bool cache_hit = false;
  bool encoded_cache_hit = false;
  int64_t batches_waited = 0;
  uint64_t tenant_version = 0;
  int64_t ticket = 0;
  bool payload_ok = true;  // OK payload equals the expected extraction
};

/// The server under load, reached through its public Submit/Wait pair.
struct ServeTarget {
  std::function<int64_t(const Arrival&)> submit;
  std::function<fieldswap::serve::ExtractResponse(int64_t)> wait;
  /// True when an OK response's spans equal the expected extraction for
  /// the arrival's document on the model version that served it.
  std::function<bool(const Arrival&, const fieldswap::serve::ExtractResponse&)>
      check;
};

struct PhaseResult {
  std::vector<Outcome> outcomes;  // one per arrival, in schedule order
  double wall_s = 0;              // first submit to last completion
  int64_t backlog_max = 0;        // most requests in flight at a submit
  int64_t backlog_at_last_arrival = 0;
  bool aborted = false;           // stopped sending: backlog past the cap
  double action_ms = 0;           // duration of the mid-phase action, if any
};

/// Sends `schedule` open-loop with one submitter (the calling thread) and
/// `waiters` waiter threads. When more than `max_in_flight` requests are
/// outstanding at a submit the backlog is growing without bound: sending
/// stops, the phase is marked aborted and `outcomes` holds only the
/// requests sent. `mid_action`, when set, runs on the submitter just before
/// the middle arrival is sent.
PhaseResult RunOpenLoop(const ServeTarget& target,
                        const std::vector<Arrival>& schedule, int waiters,
                        int64_t max_in_flight,
                        const std::function<void()>& mid_action = nullptr);

/// Sends `requests` closed-loop from `clients` threads in windows of
/// `window` requests.
PhaseResult RunClosedLoop(const ServeTarget& target,
                          const std::vector<Arrival>& requests, int clients,
                          int window);

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// The highest of p50, p90, p99, p99.9, p99.99 that has at least ten
/// samples beyond it among `n` samples, as a fraction (0 when none does).
double HighestSupportedQuantile(int64_t n);

}  // namespace perfbench

#endif  // FIELDSWAP_PERFBENCH_LOADGEN_H_
