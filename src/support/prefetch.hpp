// Software prefetch: start loading a cache line a loop will read soon.
//
// The tick's serial loops (consume, decide, the arrival append) visit
// nodes and slots in an order they know in advance, and each visit
// starts with a chain of dependent cache misses.  Touching the chain a
// few visits ahead overlaps those misses instead of paying them one
// after another.  A touch reads one byte and discards it, so it changes
// no value and cannot change any result.
//
// The touch is an ordinary load, not a prefetch instruction: on the
// 4-vCPU VM the tick loops were tuned on, prefetcht0 hints left the
// consume phase exactly as slow as without them, while the same
// pipeline built from discarded loads halved it (EXPERIMENTS.md,
// "Overlapped tick loops").  Out-of-order execution runs past a load
// whose value nobody waits for, so the miss still overlaps the work of
// the current visit.  Being a real load, it must point into a live
// object: never null, never one past the end.
#pragma once

namespace dhtlb::support {

/// Starts loading the cache line holding `p`.  `p` must point at a
/// readable byte of a live object.
inline void prefetch(const void* p) {
  const char byte = *static_cast<const volatile char*>(p);
  static_cast<void>(byte);
}

/// Starts loading every cache line of the object at `p`: a record that
/// may straddle a line boundary needs both of its ends.
template <typename T>
inline void prefetch_object(const T* p) {
  const char* first = reinterpret_cast<const char*>(p);
  prefetch(first);
  prefetch(first + sizeof(T) - 1);
}

}  // namespace dhtlb::support
