#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "obs/trace.h"
#include "spans.h"

namespace perfbench {
namespace {

using fieldswap::serve::ExtractResponse;
using fieldswap::serve::ServeStatus;

void SleepUntilUs(double due_us) {
  auto due = fieldswap::obs::GlobalTrace().origin() +
             std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double, std::micro>(due_us));
  std::this_thread::sleep_until(due);
}

void Fill(Outcome& outcome, const Arrival& arrival, const ServeTarget& target,
          const ExtractResponse& response) {
  outcome.status = response.status;
  outcome.cache_hit = response.cache_hit;
  outcome.encoded_cache_hit = response.encoded_cache_hit;
  outcome.batches_waited = response.batches_waited;
  outcome.tenant_version = response.tenant_version;
  outcome.payload_ok =
      response.status != ServeStatus::kOk || target.check(arrival, response);
}

}  // namespace

PhaseResult RunOpenLoop(const ServeTarget& target,
                        const std::vector<Arrival>& schedule, int waiters,
                        int64_t max_in_flight,
                        const std::function<void()>& mid_action) {
  const size_t n = schedule.size();
  PhaseResult result;
  result.outcomes.resize(n);
  std::vector<double> due_us(n, 0);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> handoff;  // guarded by mu
  bool closed = false;         // guarded by mu
  std::atomic<int64_t> completed{0};

  auto waiter = [&] {
    SpanLog::Get().BindThread();
    for (;;) {
      size_t i = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !handoff.empty() || closed; });
        if (handoff.empty()) return;
        i = handoff.front();
        handoff.pop_front();
      }
      Outcome& outcome = result.outcomes[i];
      double start = NowUs();
      ExtractResponse response;
      {
        Span span("serve.wait", static_cast<int64_t>(i));
        response = target.wait(outcome.ticket);
      }
      double end = NowUs();
      Span check("loadgen.check", static_cast<int64_t>(i));
      outcome.wait_ms = (end - start) / 1000.0;
      outcome.latency_ms = (end - due_us[i]) / 1000.0;
      Fill(outcome, schedule[i], target, response);
      completed.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < waiters; ++w) {
    // fslint: allow(no-raw-thread): load-generator waiter; the server runs
    // batches only inside a caller's Wait, so waiters must be real threads.
    threads.emplace_back(waiter);
  }

  const double start_us = NowUs() + 1000.0;
  size_t sent = 0;
  for (size_t i = 0; i < n; ++i) {
    if (mid_action && i == n / 2) {
      double begin = NowUs();
      mid_action();
      result.action_ms = (NowUs() - begin) / 1000.0;
    }
    due_us[i] = start_us + schedule[i].due_us;
    if (due_us[i] - NowUs() > 20.0) {
      Span span("loadgen.sleep");
      SleepUntilUs(due_us[i]);
    }
    Span dispatch("loadgen.dispatch", static_cast<int64_t>(i));
    Outcome& outcome = result.outcomes[i];
    double submit_start = NowUs();
    outcome.lag_ms = (submit_start - due_us[i]) / 1000.0;
    {
      Span span("serve.submit", static_cast<int64_t>(i));
      outcome.ticket = target.submit(schedule[i]);
    }
    outcome.submit_us = NowUs() - submit_start;
    {
      std::lock_guard<std::mutex> lock(mu);
      handoff.push_back(i);
    }
    cv.notify_one();
    sent = i + 1;
    int64_t in_flight = static_cast<int64_t>(sent) -
                        completed.load(std::memory_order_relaxed);
    result.backlog_max = std::max(result.backlog_max, in_flight);
    if (in_flight > max_in_flight) {
      result.aborted = true;
      break;
    }
  }
  result.backlog_at_last_arrival =
      static_cast<int64_t>(sent) - completed.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& thread : threads) thread.join();
  result.wall_s = (NowUs() - start_us) / 1e6;
  result.outcomes.resize(sent);
  return result;
}

PhaseResult RunClosedLoop(const ServeTarget& target,
                          const std::vector<Arrival>& requests, int clients,
                          int window) {
  const size_t n = requests.size();
  PhaseResult result;
  result.outcomes.resize(n);
  std::vector<double> submitted_at(n, 0);
  std::atomic<size_t> next{0};

  auto client = [&] {
    SpanLog::Get().BindThread();
    for (;;) {
      size_t begin = next.fetch_add(static_cast<size_t>(window));
      if (begin >= n) return;
      size_t end = std::min(n, begin + static_cast<size_t>(window));
      for (size_t i = begin; i < end; ++i) {
        Outcome& outcome = result.outcomes[i];
        submitted_at[i] = NowUs();
        {
          Span span("serve.submit", static_cast<int64_t>(i));
          outcome.ticket = target.submit(requests[i]);
        }
        outcome.submit_us = NowUs() - submitted_at[i];
      }
      for (size_t i = begin; i < end; ++i) {
        Outcome& outcome = result.outcomes[i];
        double start = NowUs();
        ExtractResponse response;
        {
          Span span("serve.wait", static_cast<int64_t>(i));
          response = target.wait(outcome.ticket);
        }
        double done = NowUs();
        Span check("loadgen.check", static_cast<int64_t>(i));
        outcome.wait_ms = (done - start) / 1000.0;
        outcome.latency_ms = (done - submitted_at[i]) / 1000.0;
        Fill(outcome, requests[i], target, response);
      }
    }
  };
  double start_us = NowUs();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    // fslint: allow(no-raw-thread): closed-loop client; each one drives
    // the thread-less server from inside its own Wait calls.
    threads.emplace_back(client);
  }
  for (std::thread& thread : threads) thread.join();
  result.wall_s = (NowUs() - start_us) / 1e6;
  return result;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double HighestSupportedQuantile(int64_t n) {
  double best = 0;
  for (double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) best = q;
  }
  return best;
}

}  // namespace perfbench
