// Positive control: correctly annotated code must compile under
// -Wthread-safety -Werror=thread-safety, so the sibling cases' failures
// are attributable to the violations, not to a broken harness.
#include "support/sync.hpp"

namespace {

class Counter {
 public:
  void bump() EXCLUDES(mu_) {
    dhtlb::MutexLock lock(mu_);
    ++value_;
  }

  void locked_bump() REQUIRES(mu_) { ++value_; }

  void bump_via_manual_lock() EXCLUDES(mu_) {
    mu_.lock();
    locked_bump();
    mu_.unlock();
  }

  int value() EXCLUDES(mu_) {
    dhtlb::MutexLock lock(mu_);
    return value_;
  }

 private:
  dhtlb::Mutex mu_;
  int value_ GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  Counter c;
  c.bump();
  c.bump_via_manual_lock();
  return c.value() == 2 ? 0 : 1;
}
