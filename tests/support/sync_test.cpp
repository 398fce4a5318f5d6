// Runtime behavior of the annotated primitives in support/sync.hpp,
// exercised at the parallelism CI pins via DHTLB_THREADS=4: every fan
// here runs on a 4-worker ThreadPool (plus raw std::threads where a
// precise interleaving is needed).  The *compile-time* side — that
// -Wthread-safety rejects misuse — is proven separately by
// thread_safety_compile_test.
#include "support/sync.hpp"

#include <condition_variable>
#include <thread>

#include <gtest/gtest.h>

#include "support/thread_pool.hpp"

namespace dhtlb::support {
namespace {

constexpr std::size_t kThreads = 4;  // mirrors DHTLB_THREADS=4 in CI
constexpr int kIncrementsPerTask = 10'000;

class GuardedCounter {
 public:
  void bump() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    ++value_;
  }

  int value() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return value_;
  }

 private:
  mutable Mutex mu_;
  int value_ GUARDED_BY(mu_) = 0;
};

TEST(SyncTest, MutexLockMakesConcurrentIncrementsExact) {
  GuardedCounter counter;
  ThreadPool pool(kThreads);
  pool.parallel_for(kThreads * 2, [&](std::size_t) {
    for (int i = 0; i < kIncrementsPerTask; ++i) counter.bump();
  });
  EXPECT_EQ(counter.value(),
            static_cast<int>(kThreads) * 2 * kIncrementsPerTask);
}

// Producer/consumer handshake through MutexLock::wait: the consumer
// must observe the flag the producer set under the same mutex.
TEST(SyncTest, MutexLockWaitHandshake) {
  Mutex mu;
  std::condition_variable cv;
  bool ready = false;  // protected by mu (local, so not annotatable)

  std::thread producer([&] {
    {
      MutexLock lock(mu);
      ready = true;
    }
    cv.notify_one();
  });
  {
    MutexLock lock(mu);
    while (!ready) lock.wait(cv);
    EXPECT_TRUE(ready);
  }
  producer.join();
}

}  // namespace
}  // namespace dhtlb::support
