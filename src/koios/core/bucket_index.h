// The bucketized iUB filter (paper §V): candidate sets are grouped by their
// number of remaining matchable elements m; within a bucket, sets are
// ordered by ascending partial score S_i. When the stream similarity drops
// to s, every set with S_i + m·s below θlb is prunable — and because the
// pruning condition S_i ≤ θlb − m·s has an identical right-hand side for
// all sets of a bucket, popping each bucket's smallest entries prunes
// everything prunable without touching surviving sets.
//
// Each bucket is a vector min-heap with lazy deletion. A candidate's m
// strictly drops on every move, so an entry (S, c) in bucket m is live
// exactly while c is alive and its current key is still m; a move just
// pushes a new entry and leaves the old one stale. Stale entries are
// dropped when they surface at a heap's top, and a heap is compacted once
// it holds about twice as many entries as live ones.
#ifndef KOIOS_CORE_BUCKET_INDEX_H_
#define KOIOS_CORE_BUCKET_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "koios/util/types.h"

namespace koios::core {

class BucketIndex {
 public:
  /// Inserts candidate `c` (a dense handle, e.g. a CandidateTable index,
  /// with no entry in the index: never inserted, or only before the last
  /// Renumber) with remaining-capacity `m` and partial score `s_i`.
  void Insert(uint32_t c, uint32_t m, Score s_i);

  /// Relocates a live candidate after it retained a new row: its key drops
  /// to `m_new` (strictly below the current one) and its value to `s_new`.
  void Move(uint32_t c, uint32_t m_new, Score s_new);

  /// Prunes every candidate with S_i + m·sim < theta − eps, invoking
  /// `on_prune(c)` for each and removing it. Returns the number pruned.
  /// Each bucket's scan stops at its smallest live survivor.
  template <typename OnPrune>
  size_t Prune(Score sim, Score theta, OnPrune&& on_prune) {
    size_t pruned = 0;
    for (size_t w = 0; w < occupied_.size(); ++w) {
      for (uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
        const uint32_t m =
            static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
        Bucket& bucket = buckets_[m];
        // Prune while S_i + m*sim is strictly below theta (eps-guarded so
        // ties are never pruned — Lemma 2 requires strict inequality).
        const Score cutoff = Cutoff(m, sim, theta);
        while (bucket.live > 0) {
          const Entry top = bucket.heap.front();
          const bool live = key_[top.c] == m;
          if (live && top.s_i >= cutoff) break;
          PopTop(&bucket);
          if (!live) continue;
          key_[top.c] = kGone;
          --bucket.live;
          --count_;
          ++pruned;
          on_prune(top.c);
        }
        if (bucket.live == 0) Clear(m);
      }
    }
    return pruned;
  }

  /// How many candidates would survive a Prune(sim, theta) without pruning
  /// them: |{C : S_C + m_C·sim >= theta − eps}|. Each bucket contributes
  /// its live count minus its live entries below the cutoff (found by
  /// descending the heap only through below-cutoff nodes); when `limit` is
  /// exceeded the count returns early with a value > limit (the feedback
  /// stop check only needs "more than the budget", not the exact count).
  size_t CountSurvivors(Score sim, Score theta, size_t limit) const;

  /// Renames every live candidate c to new_handle[c] (its owner compacted
  /// its handles) and drops all stale entries.
  void Renumber(const std::vector<uint32_t>& new_handle);

  /// Live candidates.
  size_t size() const { return count_; }
  /// Buckets holding at least one live candidate.
  size_t num_buckets() const;

  /// Bytes of heap entries and per-candidate keys allocated so far.
  size_t MemoryUsageBytes() const;

 private:
  static constexpr uint32_t kGone = std::numeric_limits<uint32_t>::max();

  struct Entry {
    Score s_i;
    uint32_t c;
  };
  struct Bucket {
    std::vector<Entry> heap;  // min-heap on s_i
    size_t live = 0;
  };
  // std::*_heap build max-heaps; "greater" turns them into min-heaps.
  static bool Greater(const Entry& a, const Entry& b) { return a.s_i > b.s_i; }

  static Score Cutoff(uint32_t m, Score sim, Score theta) {
    return theta - static_cast<Score>(m) * sim - kScoreEps;
  }
  void Push(uint32_t c, uint32_t m, Score s_i);
  static void PopTop(Bucket* bucket) {
    std::pop_heap(bucket->heap.begin(), bucket->heap.end(), Greater);
    bucket->heap.pop_back();
  }
  /// Forgets a bucket whose last live entry left (the rest are stale).
  void Clear(uint32_t m) {
    buckets_[m].heap.clear();
    occupied_[m / 64] &= ~(uint64_t{1} << (m % 64));
  }
  /// Takes one live entry out of bucket m (a move left it stale).
  void Unlink(uint32_t m);

  std::vector<Bucket> buckets_;     // indexed by m
  std::vector<uint64_t> occupied_;  // bit m: bucket m has a live entry
  std::vector<uint32_t> key_;       // candidate -> current m, or kGone
  size_t count_ = 0;
};

}  // namespace koios::core

#endif  // KOIOS_CORE_BUCKET_INDEX_H_
