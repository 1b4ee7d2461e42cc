#include "par/lock_validator.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/logging.h"

namespace fieldswap {
namespace par {
namespace {

/// One lock the calling thread currently holds.
struct HeldLock {
  const void* mutex;
  const char* name;
};

/// The calling thread's held-lock stack. Fixed capacity, so it is
/// trivially destructible: thread_local objects with destructors die
/// before static destructors run, and a pool torn down at process exit
/// still takes OrderedMutexes on the main thread.
struct HeldStack {
  static constexpr int kCapacity = 32;
  HeldLock locks[kCapacity];
  int size;

  const HeldLock* begin() const { return locks; }
  const HeldLock* end() const { return locks + size; }
};
static_assert(std::is_trivially_destructible_v<HeldStack>,
              "the held-lock stack must survive thread_local destruction");

// Zero-initialized like any thread-storage object: empty on every thread.
thread_local HeldStack t_held;

/// A directed acquisition-order edge with the chain that first produced
/// it, e.g. "MultiTenantServer::mu_ -> ModelRegistry::mu_ (thread held
/// MultiTenantServer::mu_, then acquired ModelRegistry::mu_)".
struct EdgeWitness {
  std::string chain;
};

/// Orders edges by (from, to) name. Transparent, so a nested acquisition
/// looks its edge up by string_view and allocates only to record a new one.
struct EdgeLess {
  using is_transparent = void;
  using View = std::pair<std::string_view, std::string_view>;
  static View AsView(const std::pair<std::string, std::string>& edge) {
    return {edge.first, edge.second};
  }
  static View AsView(const View& edge) { return edge; }
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return AsView(a) < AsView(b);
  }
};

/// Global acquisition graph. g_graph_mu guards g_edges; it is a plain
/// std::mutex (never an OrderedMutex — the validator cannot validate
/// itself without recursing).
std::mutex g_graph_mu;
std::map<std::pair<std::string, std::string>, EdgeWitness, EdgeLess> g_edges;

void DefaultFailureHandler(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::abort();
}

std::atomic<LockValidator::FailureHandler> g_failure_handler{
    &DefaultFailureHandler};

// -1 = follow the environment, 0 = forced off, 1 = forced on.
std::atomic<int> g_enabled_override{-1};

bool EnvEnabled() {
  static const bool enabled = [] {
    const char* value = std::getenv("FS_VALIDATE_LOCKS");
    return value != nullptr && value[0] == '1';
  }();
  return enabled;
}

/// True when `from` can reach `to` in g_edges. Caller holds g_graph_mu.
/// On success appends the path's witness chains (one per edge, in path
/// order) to `chains`; a search that finds no path allocates nothing.
bool FindPathLocked(std::string_view from, std::string_view to,
                    std::vector<std::string>* chains) {
  if (from == to) return true;
  for (auto it = g_edges.lower_bound(EdgeLess::View{from, {}});
       it != g_edges.end() && it->first.first == from; ++it) {
    if (FindPathLocked(it->first.second, to, chains)) {
      chains->insert(chains->begin(), it->second.chain);
      return true;
    }
  }
  return false;
}

std::string HeldChainString(const char* acquiring) {
  std::ostringstream out;
  out << "held ";
  for (int i = 0; i < t_held.size; ++i) {
    if (i > 0) out << " -> ";
    out << "'" << t_held.locks[i].name << "'";
  }
  out << ", acquiring '" << acquiring << "'";
  return out.str();
}

}  // namespace

bool LockValidator::Enabled() {
  int forced = g_enabled_override.load(std::memory_order_relaxed);
  if (forced >= 0) return forced != 0;
  return EnvEnabled();
}

void LockValidator::SetEnabledForTesting(bool enabled) {
  g_enabled_override.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void LockValidator::ClearEnabledOverrideForTesting() {
  g_enabled_override.store(-1, std::memory_order_relaxed);
}

LockValidator::FailureHandler LockValidator::SetFailureHandler(
    FailureHandler handler) {
  if (handler == nullptr) handler = &DefaultFailureHandler;
  return g_failure_handler.exchange(handler);
}

void LockValidator::OnAcquire(const void* mutex, const char* name) {
  if (!Enabled()) return;
  std::string failure;
  {
    std::lock_guard<std::mutex> graph_lock(g_graph_mu);
    // A recursive-acquisition attempt of the same named lock is its own
    // inversion (self-deadlock for a non-recursive mutex).
    for (const HeldLock& held : t_held) {
      if (held.mutex == mutex) {
        failure = "lock-order violation: recursive acquisition of '" +
                  std::string(name) + "' (" + HeldChainString(name) + ")";
        break;
      }
    }
    for (const HeldLock& held : t_held) {
      if (!failure.empty()) break;
      // Acquiring `name` while holding `held` requires the order
      // held -> name; a recorded path name ->* held means some other
      // execution used the opposite order.
      std::vector<std::string> reverse_chains;
      if (FindPathLocked(name, held.name, &reverse_chains)) {
        std::ostringstream out;
        out << "lock-order violation: this thread " << HeldChainString(name)
            << "; conflicting order previously recorded: ";
        for (size_t i = 0; i < reverse_chains.size(); ++i) {
          if (i > 0) out << "; ";
          out << reverse_chains[i];
        }
        out << " — see tools/lock_order.txt for the canonical order";
        failure = out.str();
        break;
      }
    }
    if (failure.empty()) {
      for (const HeldLock& held : t_held) {
        if (g_edges.find(EdgeLess::View{held.name, name}) == g_edges.end()) {
          g_edges.emplace(
              std::make_pair(std::string(held.name), std::string(name)),
              EdgeWitness{HeldChainString(name)});
          obs::CounterAdd("fieldswap.par.lockval.edges");
        }
      }
    }
  }
  if (!failure.empty()) {
    obs::CounterAdd("fieldswap.par.lockval.violations");
    g_failure_handler.load()(failure);
    return;  // a test handler may not abort; do not record the bad edge
  }
  FS_CHECK_LT(t_held.size, HeldStack::kCapacity)
      << "lock validator: more than " << HeldStack::kCapacity
      << " locks held at once by one thread";
  t_held.locks[t_held.size++] = HeldLock{mutex, name};
}

void LockValidator::OnRelease(const void* mutex) {
  if (!Enabled()) return;
  for (int i = t_held.size - 1; i >= 0; --i) {
    if (t_held.locks[i].mutex == mutex) {
      std::copy(t_held.locks + i + 1, t_held.locks + t_held.size,
                t_held.locks + i);
      --t_held.size;
      return;
    }
  }
}

void LockValidator::ResetForTesting() {
  std::lock_guard<std::mutex> graph_lock(g_graph_mu);
  g_edges.clear();
}

}  // namespace par
}  // namespace fieldswap
