// Thread-safety-annotated synchronization primitives.
//
// Every mutex in this repo is a dhtlb::support::Mutex, and every piece
// of state it guards is marked GUARDED_BY, so the locking contract is
// part of the type system instead of a comment.
// Under Clang the annotations compile to -Wthread-safety capability
// checks — enabled as -Werror=thread-safety by the top-level
// CMakeLists — which reject unguarded access, unlock-without-lock, and
// REQUIRES violations at compile time (tests/support/
// thread_safety_compile proves it).  Under GCC and other compilers the
// attribute macros expand to nothing and the primitives behave exactly
// like the std types they wrap, so the annotations cost nothing where
// they cannot be checked.
//
// The vocabulary is the Clang thread-safety-analysis standard set
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html):
//
//   CAPABILITY(x)        this type is a lockable capability named x
//   SCOPED_CAPABILITY    RAII type that acquires in ctor, releases in dtor
//   GUARDED_BY(mu)       data member readable/writable only under mu
//   REQUIRES(mu)         caller must hold mu (exclusive) to call this
//   ACQUIRE(mu)…         function acquires/releases mu itself
//   EXCLUDES(mu)         caller must NOT hold mu (deadlock guard)
//
// Condition variables: MutexLock wraps std::unique_lock, so waiting is
// `lock.wait(cv)` inside an explicit predicate loop.  The analysis
// treats the capability as held across the wait (the same convention
// as abseil's CondVar) — re-check your predicate after every wake.
#pragma once

#include <condition_variable>
#include <mutex>

// Thread-safety attributes are a Clang extension; everywhere else the
// macros vanish.  SWIG and other tools that choke on attributes get the
// empty expansion too.
#if defined(__clang__) && !defined(SWIG)
#define DHTLB_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define DHTLB_THREAD_ANNOTATION__(x)  // no-op off Clang
#endif

#define CAPABILITY(x) DHTLB_THREAD_ANNOTATION__(capability(x))
#define SCOPED_CAPABILITY DHTLB_THREAD_ANNOTATION__(scoped_lockable)
#define GUARDED_BY(x) DHTLB_THREAD_ANNOTATION__(guarded_by(x))
#define REQUIRES(...) \
  DHTLB_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define ACQUIRE(...) \
  DHTLB_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define RELEASE(...) \
  DHTLB_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define EXCLUDES(...) DHTLB_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

namespace dhtlb::support {

/// std::mutex as a named capability.  Prefer MutexLock over manual
/// lock()/unlock() pairs; the manual API exists for the rare shape RAII
/// cannot express (and stays fully checked either way).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { m_.lock(); }
  void unlock() RELEASE() { m_.unlock(); }

 private:
  friend class MutexLock;
  std::mutex m_;
};

/// RAII exclusive lock over a Mutex.  Holds a std::unique_lock inside
/// so condition-variable waits work: `while (!pred()) lock.wait(cv);`.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : lock_(mu.m_) {}
  ~MutexLock() RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Atomically releases the mutex, blocks on `cv`, and re-acquires
  /// before returning.  The capability is considered held throughout
  /// (abseil CondVar convention): guarded state may be touched on
  /// either side, but predicates must be re-checked after every wake.
  void wait(std::condition_variable& cv) { cv.wait(lock_); }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace dhtlb::support

namespace dhtlb {
// The primitives are used from every layer; lift them to the project
// namespace so call sites read dhtlb::Mutex, not a support:: mouthful.
using support::Mutex;        // NOLINT(misc-unused-using-decls)
using support::MutexLock;    // NOLINT(misc-unused-using-decls)
}  // namespace dhtlb
