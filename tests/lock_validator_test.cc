// Tests for the runtime lock-order validator (src/par/lock_validator.h):
// per-thread held stacks, the global acquisition graph, and the inversion
// report that names both conflicting chains. The deliberate inversions
// here go through helper functions taking OrderedMutex& — fslint's
// per-function static walker cannot see through the call, which is
// exactly the class of deadlock only the runtime validator catches.
//
// Threads are created and joined one at a time, so the two conflicting
// acquisition orders never actually contend. A thread sanitizer still
// reports each deliberate inversion as a potential deadlock — correctly —
// so those tests run their inversion in a child process (RunInChild) and
// the report stays there, out of the test binary's own exit status.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "par/lock_validator.h"

namespace fieldswap {
namespace par {
namespace {

std::string* CapturedFailure() {
  static std::string* message = new std::string;
  return message;
}

void CaptureFailure(const std::string& message) {
  *CapturedFailure() = message;
}

/// Acquires `first` then `second`, then releases both — recording the
/// edge first -> second (or failing if the graph shows the opposite
/// order). Taking the mutexes by reference keeps the acquisition
/// invisible to fslint's static walker: this is the runtime validator's
/// half of the concurrency story.
void AcquireInOrder(util::OrderedMutex& first, util::OrderedMutex& second) {
  first.lock();
  second.lock();
  second.unlock();
  first.unlock();
}

/// Says why a check in a RunInChild child failed; returns false.
bool Report(const std::string& why) {
  std::fprintf(stderr, "%s\n", why.c_str());
  return false;
}

/// True when `message` contains `needle`; reports what is missing
/// otherwise.
bool Mentions(const std::string& message, const char* needle) {
  if (message.find(needle) != std::string::npos) return true;
  return Report("missing \"" + std::string(needle) + "\" in: " + message);
}

/// Runs `check` in a fresh child process (gtest's threadsafe death-test
/// style re-executes the binary into this test) and expects it to return
/// true. Only the child's exit code comes back.
void RunInChild(bool (*check)()) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(std::_Exit(check() ? 0 : 1), ::testing::ExitedWithCode(0), "");
}

class LockValidatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LockValidator::ResetForTesting();
    CapturedFailure()->clear();
    LockValidator::SetEnabledForTesting(true);
    previous_handler_ = LockValidator::SetFailureHandler(&CaptureFailure);
  }

  void TearDown() override {
    LockValidator::SetFailureHandler(previous_handler_);
    // Follow the environment again (not forced off): under the
    // FS_VALIDATE_LOCKS=1 ctest gate the suites after this one must stay
    // validated.
    LockValidator::ClearEnabledOverrideForTesting();
    LockValidator::ResetForTesting();
  }

  LockValidator::FailureHandler previous_handler_ = nullptr;
};

TEST_F(LockValidatorTest, ConsistentOrderIsClean) {
  util::OrderedMutex outer{"lockval_test::clean_outer"};
  util::OrderedMutex inner{"lockval_test::clean_inner"};
  AcquireInOrder(outer, inner);
  AcquireInOrder(outer, inner);  // same order again: still clean
  EXPECT_TRUE(CapturedFailure()->empty()) << *CapturedFailure();
}

bool InversionAcrossThreadsNamesBothChains() {
  util::OrderedMutex outer{"lockval_test::outer"};
  util::OrderedMutex inner{"lockval_test::inner"};
  // First thread establishes outer -> inner; joined before the second
  // starts, so the inversion is an *order* violation, never a real race.
  // fslint: allow(no-raw-thread): the validator keys held stacks by
  //   thread, so the conflicting orders must come from distinct threads
  std::thread forward(AcquireInOrder, std::ref(outer), std::ref(inner));
  forward.join();
  if (!CapturedFailure()->empty()) {
    return Report("unexpected failure: " + *CapturedFailure());
  }

  // fslint: allow(no-raw-thread): second thread takes the opposite order
  std::thread inverted(AcquireInOrder, std::ref(inner), std::ref(outer));
  inverted.join();

  const std::string& message = *CapturedFailure();
  return Mentions(message, "lock-order violation") &&
         // The chain executing now...
         Mentions(message,
                  "held 'lockval_test::inner', acquiring "
                  "'lockval_test::outer'") &&
         // ...and the conflicting chain recorded earlier, plus the pointer
         // to the canonical order.
         Mentions(message,
                  "held 'lockval_test::outer', acquiring "
                  "'lockval_test::inner'") &&
         Mentions(message, "tools/lock_order.txt");
}

TEST_F(LockValidatorTest, InversionAcrossThreadsNamesBothChains) {
  RunInChild(&InversionAcrossThreadsNamesBothChains);
}

bool TransitiveInversionReportsTheWholePath() {
  util::OrderedMutex a{"lockval_test::path_a"};
  util::OrderedMutex b{"lockval_test::path_b"};
  util::OrderedMutex c{"lockval_test::path_c"};
  AcquireInOrder(a, b);
  AcquireInOrder(b, c);
  if (!CapturedFailure()->empty()) {
    return Report("unexpected failure: " + *CapturedFailure());
  }

  // c -> a inverts a ->* c through b; both recorded hops are named.
  AcquireInOrder(c, a);
  const std::string& message = *CapturedFailure();
  return Mentions(message,
                  "held 'lockval_test::path_a', acquiring "
                  "'lockval_test::path_b'") &&
         Mentions(message,
                  "held 'lockval_test::path_b', acquiring "
                  "'lockval_test::path_c'");
}

TEST_F(LockValidatorTest, TransitiveInversionReportsTheWholePath) {
  RunInChild(&TransitiveInversionReportsTheWholePath);
}

TEST_F(LockValidatorTest, TryLockParticipatesInTheOrder) {
  util::OrderedMutex outer{"lockval_test::try_outer"};
  util::OrderedMutex inner{"lockval_test::try_inner"};
  outer.lock();
  ASSERT_TRUE(inner.try_lock());  // records try_outer -> try_inner
  inner.unlock();
  outer.unlock();
  EXPECT_TRUE(CapturedFailure()->empty()) << *CapturedFailure();

  AcquireInOrder(inner, outer);
  EXPECT_NE(CapturedFailure()->find("lock-order violation"),
            std::string::npos)
      << *CapturedFailure();
}

TEST_F(LockValidatorTest, RecursiveAcquisitionIsItsOwnViolation) {
  int marker = 0;
  LockValidator::OnAcquire(&marker, "lockval_test::recursive");
  LockValidator::OnAcquire(&marker, "lockval_test::recursive");
  EXPECT_NE(CapturedFailure()->find("recursive acquisition"),
            std::string::npos)
      << *CapturedFailure();
  LockValidator::OnRelease(&marker);
}

bool DisabledValidatorIsInert() {
  LockValidator::SetEnabledForTesting(false);
  util::OrderedMutex outer{"lockval_test::inert_outer"};
  util::OrderedMutex inner{"lockval_test::inert_inner"};
  AcquireInOrder(outer, inner);
  AcquireInOrder(inner, outer);  // inverted, but nobody is watching
  if (CapturedFailure()->empty()) return true;
  return Report("unexpected failure: " + *CapturedFailure());
}

TEST_F(LockValidatorTest, DisabledValidatorIsInert) {
  RunInChild(&DisabledValidatorIsInert);
}

TEST_F(LockValidatorTest, OrderedMutexExposesItsName) {
  util::OrderedMutex mu{"lockval_test::named"};
  EXPECT_STREQ(mu.name(), "lockval_test::named");
}

}  // namespace
}  // namespace par
}  // namespace fieldswap
