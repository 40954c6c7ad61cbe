//===- serve/ArtifactCache.h - Compile-once artifact cache -----*- C++ -*-===//
///
/// \file
/// The compile-once/serve-many cache at the heart of the serving layer
/// (DESIGN.md section 13). Entries are keyed by the artifact
/// fingerprint (serve/Protocol.h artifactKey: model + schedule +
/// backend + args + data, seed and query excluded) and hold
/// shared_ptr-managed compiled artifacts, so an entry evicted while a
/// request is still sampling stays alive until the last lease drops —
/// eviction never invalidates in-flight work, and the dlopen handles
/// owned by a native artifact close only when truly unreferenced.
///
/// Single-flight: concurrent acquires of a missing key block on one
/// factory invocation; the leader compiles, everyone shares the result.
/// A factory failure (poisoned compile) is delivered to every waiter
/// and the placeholder entry is removed — failures are never cached, so
/// the next request retries the compile.
///
/// Eviction: strict LRU by acquire time, enforced after each successful
/// insert. The cache is a class template so tests can exercise the
/// concurrency machinery with trivial artifacts (no model compiles).
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_SERVE_ARTIFACTCACHE_H
#define AUGUR_SERVE_ARTIFACTCACHE_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>

#include "support/Result.h"

namespace augur {
namespace serve {

/// Monotonic cache statistics (snapshot via ArtifactCache::stats()).
struct ArtifactCacheStats {
  uint64_t Hits = 0;       ///< acquire found a ready entry
  uint64_t Misses = 0;     ///< acquire compiled (factory ran)
  uint64_t Evictions = 0;  ///< LRU evictions
  uint64_t Failures = 0;   ///< factory errors (poisoned compiles)
  uint64_t Coalesced = 0;  ///< acquires that waited on another's compile
};

/// An LRU, single-flight cache from uint64 fingerprints to
/// shared_ptr<A> artifacts.
template <typename A> class ArtifactCache {
public:
  using Artifact = std::shared_ptr<A>;
  using Factory = std::function<Result<Artifact>()>;

  /// \p Capacity is the maximum number of resident entries (>= 1).
  explicit ArtifactCache(size_t Capacity)
      : Capacity(Capacity < 1 ? 1 : Capacity) {}

  /// Returns the artifact for \p Key, invoking \p Make to build it on a
  /// miss. Blocks while another thread is already building the same key
  /// and shares that thread's result (or error).
  Result<Artifact> acquire(uint64_t Key, const Factory &Make) {
    std::unique_lock<std::mutex> Lock(Mu);
    for (;;) {
      auto It = Entries.find(Key);
      if (It == Entries.end())
        break; // miss: this thread becomes the builder
      Entry &E = *It->second;
      if (E.Ready) {
        ++Stats_.Hits;
        touch(Key);
        return E.Art;
      }
      // Another thread is compiling this key: wait for its outcome and
      // re-check (the entry disappears on a poisoned compile).
      ++Stats_.Coalesced;
      uint64_t Gen = E.Generation;
      Cv.wait(Lock, [&] {
        auto It2 = Entries.find(Key);
        return It2 == Entries.end() || It2->second->Ready ||
               It2->second->Generation != Gen;
      });
    }

    // Install the in-flight placeholder, then compile outside the lock.
    auto E = std::make_shared<Entry>();
    E->Generation = ++GenerationCounter;
    Entries.emplace(Key, E);
    Lock.unlock();

    Result<Artifact> Built = Make();

    Lock.lock();
    if (!Built.ok()) {
      // Poisoned compile: never cached. Drop the placeholder so the
      // next acquire retries, and wake the waiters so they observe the
      // removal and surface the same error.
      ++Stats_.Failures;
      Entries.erase(Key);
      Cv.notify_all();
      return Built.status();
    }
    ++Stats_.Misses;
    E->Art = Built.take();
    E->Ready = true;
    touch(Key);
    evictOverflow();
    Cv.notify_all();
    return E->Art;
  }

  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Entries.size();
  }

  bool contains(uint64_t Key) const {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Entries.find(Key);
    return It != Entries.end() && It->second->Ready;
  }

  ArtifactCacheStats stats() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Stats_;
  }

private:
  struct Entry {
    bool Ready = false;
    uint64_t Generation = 0;
    Artifact Art;
  };

  /// Moves \p Key to the most-recently-used position. Caller holds Mu.
  void touch(uint64_t Key) {
    Lru.remove(Key);
    Lru.push_back(Key);
  }

  /// Evicts least-recently-used READY entries until within capacity.
  /// In-flight placeholders are never evicted (they are not in Lru).
  /// Caller holds Mu.
  void evictOverflow() {
    while (Lru.size() > Capacity) {
      uint64_t Victim = Lru.front();
      Lru.pop_front();
      Entries.erase(Victim);
      ++Stats_.Evictions;
    }
  }

  const size_t Capacity;
  mutable std::mutex Mu;
  std::condition_variable Cv;
  std::map<uint64_t, std::shared_ptr<Entry>> Entries;
  std::list<uint64_t> Lru; ///< ready keys, LRU-first
  uint64_t GenerationCounter = 0;
  ArtifactCacheStats Stats_;
};

} // namespace serve
} // namespace augur

#endif // AUGUR_SERVE_ARTIFACTCACHE_H
