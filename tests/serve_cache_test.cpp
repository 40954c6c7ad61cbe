//===- tests/serve_cache_test.cpp - Artifact cache tests --------*- C++ -*-===//
//
// The compile-once artifact cache (serve/ArtifactCache.h):
//
//  * hit/miss/LRU-eviction semantics, with touch-on-acquire recency,
//  * single-flight: 8 threads racing on one missing key run the factory
//    exactly once and share its artifact,
//  * poisoned compiles are never cached — every coalesced waiter gets
//    the error, and the next acquire retries the factory,
//  * eviction never invalidates a live lease (shared_ptr semantics).
//
// Artifacts here are trivial ints so the tests exercise the concurrency
// machinery without model compiles.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/ArtifactCache.h"

using namespace augur;
using namespace augur::serve;

namespace {

/// An artifact that counts live instances, so lease-survival across
/// eviction is observable.
struct Counted {
  explicit Counted(int V) : V(V) { ++Live; }
  ~Counted() { --Live; }
  int V;
  static std::atomic<int> Live;
};
std::atomic<int> Counted::Live{0};

ArtifactCache<Counted>::Factory make(int V, std::atomic<int> *Runs = nullptr) {
  return [V, Runs]() -> Result<std::shared_ptr<Counted>> {
    if (Runs)
      Runs->fetch_add(1);
    return std::make_shared<Counted>(V);
  };
}

} // namespace

TEST(ServeCache, HitAfterMiss) {
  ArtifactCache<Counted> C(4);
  std::atomic<int> Runs{0};

  auto A = C.acquire(1, make(10, &Runs));
  ASSERT_TRUE(A.ok()) << A.message();
  EXPECT_EQ((*A)->V, 10);
  EXPECT_EQ(Runs.load(), 1);

  // Second acquire of the same key never re-runs the factory.
  auto B = C.acquire(1, make(99, &Runs));
  ASSERT_TRUE(B.ok());
  EXPECT_EQ((*B)->V, 10);
  EXPECT_EQ(A->get(), B->get());
  EXPECT_EQ(Runs.load(), 1);

  ArtifactCacheStats S = C.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Evictions, 0u);
}

TEST(ServeCache, LruEvictionRespectsRecency) {
  ArtifactCache<Counted> C(2);
  ASSERT_TRUE(C.acquire(1, make(1)).ok());
  ASSERT_TRUE(C.acquire(2, make(2)).ok());
  // Touch 1 so 2 becomes the LRU victim.
  ASSERT_TRUE(C.acquire(1, make(0)).ok());
  ASSERT_TRUE(C.acquire(3, make(3)).ok());

  EXPECT_TRUE(C.contains(1));
  EXPECT_FALSE(C.contains(2));
  EXPECT_TRUE(C.contains(3));
  EXPECT_EQ(C.size(), 2u);
  EXPECT_EQ(C.stats().Evictions, 1u);
}

TEST(ServeCache, EvictionKeepsLeasesAlive) {
  Counted::Live.store(0);
  ArtifactCache<Counted> C(1);
  auto Lease = C.acquire(1, make(7));
  ASSERT_TRUE(Lease.ok());
  EXPECT_EQ(Counted::Live.load(), 1);

  // Key 2 evicts key 1, but the outstanding lease keeps it alive.
  ASSERT_TRUE(C.acquire(2, make(8)).ok());
  EXPECT_FALSE(C.contains(1));
  EXPECT_EQ(Counted::Live.load(), 2);
  EXPECT_EQ((*Lease)->V, 7);

  // Dropping the last lease destroys the evicted artifact; the cached
  // one survives.
  *Lease = nullptr;
  EXPECT_EQ(Counted::Live.load(), 1);
}

TEST(ServeCache, SingleFlightCoalescesConcurrentAcquires) {
  ArtifactCache<Counted> C(4);
  const int N = 8;
  std::atomic<int> Runs{0}, Started{0};

  // The factory refuses to finish until every thread has launched, so
  // the non-leader threads are all in acquire() before the artifact
  // becomes ready.
  auto SlowFactory = [&]() -> Result<std::shared_ptr<Counted>> {
    Runs.fetch_add(1);
    while (Started.load() < N)
      std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return std::make_shared<Counted>(123);
  };

  std::vector<std::shared_ptr<Counted>> Got(N);
  std::vector<std::thread> Threads;
  for (int I = 0; I < N; ++I)
    Threads.emplace_back([&, I] {
      Started.fetch_add(1);
      auto R = C.acquire(77, SlowFactory);
      ASSERT_TRUE(R.ok()) << R.message();
      Got[size_t(I)] = *R;
    });
  for (auto &T : Threads)
    T.join();

  EXPECT_EQ(Runs.load(), 1) << "single-flight ran the factory twice";
  for (int I = 1; I < N; ++I)
    EXPECT_EQ(Got[0].get(), Got[size_t(I)].get());

  ArtifactCacheStats S = C.stats();
  // Every acquire resolves as exactly one hit or miss (Coalesced is an
  // additional wait counter: how many acquires blocked on the leader's
  // in-flight compile before hitting).
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, uint64_t(N - 1));
  EXPECT_LE(S.Coalesced, uint64_t(N - 1));
}

TEST(ServeCache, PoisonedCompileIsNotCached) {
  ArtifactCache<Counted> C(4);
  const int N = 6;
  std::atomic<int> Runs{0}, Started{0};

  auto FailingFactory = [&]() -> Result<std::shared_ptr<Counted>> {
    Runs.fetch_add(1);
    while (Started.load() < N)
      std::this_thread::yield();
    return Status::error("compiler exploded");
  };

  std::vector<Status> Results(N, Status::success());
  std::vector<std::thread> Threads;
  for (int I = 0; I < N; ++I)
    Threads.emplace_back([&, I] {
      Started.fetch_add(1);
      auto R = C.acquire(42, FailingFactory);
      Results[size_t(I)] = R.ok() ? Status::success() : R.status();
    });
  for (auto &T : Threads)
    T.join();

  // The failure was delivered to the leader and every coalesced waiter;
  // stragglers that re-checked after the placeholder vanished became
  // builders themselves and failed the same way.
  int Failed = 0;
  for (const Status &S : Results)
    if (!S.ok()) {
      ++Failed;
      EXPECT_NE(S.message().find("compiler exploded"), std::string::npos);
    }
  EXPECT_EQ(Failed, N);

  // Never cached: the entry is gone and the next acquire retries.
  EXPECT_FALSE(C.contains(42));
  EXPECT_EQ(C.size(), 0u);
  EXPECT_GE(C.stats().Failures, 1u);

  std::atomic<int> RetryRuns{0};
  auto R = C.acquire(42, make(5, &RetryRuns));
  ASSERT_TRUE(R.ok()) << "retry after poisoned compile failed";
  EXPECT_EQ((*R)->V, 5);
  EXPECT_EQ(RetryRuns.load(), 1);
  EXPECT_TRUE(C.contains(42));
}

TEST(ServeCache, DistinctKeysBuildConcurrently) {
  // Two different keys must not serialize on each other's compile: if
  // they did, the cross-dependent factories below would deadlock.
  ArtifactCache<Counted> C(4);
  std::atomic<int> AStarted{0}, BStarted{0};

  std::thread TA([&] {
    auto R = C.acquire(1, [&]() -> Result<std::shared_ptr<Counted>> {
      AStarted.store(1);
      while (!BStarted.load())
        std::this_thread::yield();
      return std::make_shared<Counted>(1);
    });
    EXPECT_TRUE(R.ok());
  });
  std::thread TB([&] {
    auto R = C.acquire(2, [&]() -> Result<std::shared_ptr<Counted>> {
      BStarted.store(1);
      while (!AStarted.load())
        std::this_thread::yield();
      return std::make_shared<Counted>(2);
    });
    EXPECT_TRUE(R.ok());
  });
  TA.join();
  TB.join();
  EXPECT_EQ(C.stats().Misses, 2u);
}
