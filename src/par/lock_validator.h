#ifndef FIELDSWAP_PAR_LOCK_VALIDATOR_H_
#define FIELDSWAP_PAR_LOCK_VALIDATOR_H_

#include <mutex>
#include <string>

namespace fieldswap {
namespace par {

/// Runtime lock-order validator: the dynamic half of the concurrency story
/// (fslint's `lock-order` rule is the static half; DESIGN.md "Concurrency
/// analysis"). Each thread keeps a stack of the named locks it holds;
/// every acquisition records a `held -> acquired` edge in a global graph.
/// Acquiring A while the graph already shows a path A ->* H for some held
/// lock H is an executed acquisition-order inversion: the validator fails
/// with a message naming BOTH chains — the one running now and the one
/// recorded earlier — before any actual deadlock can bite in production.
///
/// Disabled by default (the fast path is one relaxed atomic load). Enable
/// with the environment variable `FS_VALIDATE_LOCKS=1` (read once) or
/// SetEnabledForTesting. check_sanitizers.sh runs the test suite with it
/// on, so CI executes every acquisition order under validation.
class LockValidator {
 public:
  /// True when validation is active (env FS_VALIDATE_LOCKS=1 or a test
  /// override).
  static bool Enabled();

  /// Forces validation on/off, overriding the environment. For tests.
  static void SetEnabledForTesting(bool enabled);

  /// Drops the SetEnabledForTesting override so Enabled() follows the
  /// environment again. Tests call this in teardown rather than forcing
  /// `false`, so a FS_VALIDATE_LOCKS=1 ctest run keeps validating the
  /// suites that come after them.
  static void ClearEnabledOverrideForTesting();

  /// Called on an inversion with a message naming both conflicting
  /// acquisition chains. The default handler prints to stderr and aborts.
  /// Tests install their own to capture the message. Returns the previous
  /// handler.
  using FailureHandler = void (*)(const std::string& message);
  static FailureHandler SetFailureHandler(FailureHandler handler);

  /// Records that the calling thread is acquiring `mutex` (known as
  /// `name`), validating the order against the global graph first.
  static void OnAcquire(const void* mutex, const char* name);

  /// Records that the calling thread released `mutex`.
  static void OnRelease(const void* mutex);

  /// Forgets every recorded edge (not the per-thread held stacks). For
  /// tests that exercise conflicting orders back to back.
  static void ResetForTesting();
};

}  // namespace par

namespace util {

/// A named std::mutex that reports acquisitions to par::LockValidator.
/// Drop-in BasicLockable/Lockable replacement for std::mutex in the
/// annotated serving tree — pair it with std::condition_variable_any
/// (std::condition_variable only accepts std::mutex).
///
/// Declared here rather than in src/util because the layering DAG
/// (tools/layers.txt) makes util a leaf: util must not include par, while
/// serve — the layer that instantiates these — may. The class lives in
/// namespace util because it is vocabulary, not parallel machinery.
class OrderedMutex {
 public:
  /// `name` must outlive the mutex and should be globally unique; the
  /// convention is the qualified member name ("MultiTenantServer::mu_"),
  /// matching the identifiers in tools/lock_order.txt.
  explicit OrderedMutex(const char* name) : name_(name) {}
  OrderedMutex(const OrderedMutex&) = delete;
  OrderedMutex& operator=(const OrderedMutex&) = delete;

  void lock() {
    // Validate before blocking: the inversion report must come from the
    // thread that would deadlock, while it can still report anything.
    par::LockValidator::OnAcquire(this, name_);
    mu_.lock();
  }

  bool try_lock() {
    if (!mu_.try_lock()) return false;
    par::LockValidator::OnAcquire(this, name_);
    return true;
  }

  void unlock() {
    mu_.unlock();
    par::LockValidator::OnRelease(this);
  }

  const char* name() const { return name_; }

 private:
  std::mutex mu_;
  const char* name_;
};

}  // namespace util
}  // namespace fieldswap

#endif  // FIELDSWAP_PAR_LOCK_VALIDATOR_H_
