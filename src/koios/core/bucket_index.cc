#include "koios/core/bucket_index.h"

#include <cassert>

namespace koios::core {

void BucketIndex::Insert(uint32_t c, uint32_t m, Score s_i) {
  if (c >= key_.size()) key_.resize(size_t{c} + 1, kGone);
  assert(key_[c] == kGone);
  Push(c, m, s_i);
  ++count_;
}

void BucketIndex::Move(uint32_t c, uint32_t m_new, Score s_new) {
  const uint32_t m_old = key_[c];
  assert(m_old != kGone && m_new < m_old);
  Push(c, m_new, s_new);  // the entry in bucket m_old is stale from here on
  Unlink(m_old);
}

void BucketIndex::Push(uint32_t c, uint32_t m, Score s_i) {
  if (m >= buckets_.size()) {
    buckets_.resize(size_t{m} + 1);
    occupied_.resize(buckets_.size() / 64 + 1, 0);
  }
  Bucket& bucket = buckets_[m];
  bucket.heap.push_back({s_i, c});
  std::push_heap(bucket.heap.begin(), bucket.heap.end(), Greater);
  ++bucket.live;
  occupied_[m / 64] |= uint64_t{1} << (m % 64);
  key_[c] = m;
}

void BucketIndex::Unlink(uint32_t m) {
  Bucket& bucket = buckets_[m];
  --bucket.live;
  if (bucket.live == 0) {
    Clear(m);
    return;
  }
  // Past about twice its live entries, drop the stale ones: each
  // compaction is paid for by the live-count-many moves that preceded it.
  constexpr size_t kSlack = 8;
  if (bucket.heap.size() <= 2 * bucket.live + kSlack) return;
  std::erase_if(bucket.heap, [&](const Entry& e) { return key_[e.c] != m; });
  std::make_heap(bucket.heap.begin(), bucket.heap.end(), Greater);
}

void BucketIndex::Renumber(const std::vector<uint32_t>& new_handle) {
  std::vector<uint32_t> key(count_, kGone);
  for (size_t w = 0; w < occupied_.size(); ++w) {
    for (uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
      const uint32_t m =
          static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
      std::vector<Entry>& heap = buckets_[m].heap;
      size_t kept = 0;
      for (size_t i = 0; i < heap.size(); ++i) {
        const Entry e = heap[i];
        if (key_[e.c] != m) continue;
        heap[kept++] = {e.s_i, new_handle[e.c]};
        key[new_handle[e.c]] = m;
      }
      heap.resize(kept);
      std::make_heap(heap.begin(), heap.end(), Greater);
    }
  }
  key_.swap(key);
}

size_t BucketIndex::CountSurvivors(Score sim, Score theta,
                                   size_t limit) const {
  size_t survivors = 0;
  std::vector<size_t> stack;
  for (size_t w = 0; w < occupied_.size(); ++w) {
    for (uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
      const uint32_t m =
          static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
      const Bucket& bucket = buckets_[m];
      const Score cutoff = Cutoff(m, sim, theta);
      // Min-heap: a node at or above the cutoff has no descendant below
      // it, so the walk visits exactly the below-cutoff entries.
      size_t below = 0;
      stack.assign(1, 0);
      while (!stack.empty()) {
        const size_t i = stack.back();
        stack.pop_back();
        if (i >= bucket.heap.size() || bucket.heap[i].s_i >= cutoff) continue;
        if (key_[bucket.heap[i].c] == m) ++below;
        stack.push_back(2 * i + 1);
        stack.push_back(2 * i + 2);
      }
      survivors += bucket.live - below;
      if (survivors > limit) return survivors;  // enough to answer the check
    }
  }
  return survivors;
}

size_t BucketIndex::num_buckets() const {
  size_t n = 0;
  for (uint64_t word : occupied_) n += static_cast<size_t>(std::popcount(word));
  return n;
}

size_t BucketIndex::MemoryUsageBytes() const {
  size_t bytes = buckets_.capacity() * sizeof(Bucket) +
                 occupied_.capacity() * sizeof(uint64_t) +
                 key_.capacity() * sizeof(uint32_t);
  for (const Bucket& bucket : buckets_) {
    bytes += bucket.heap.capacity() * sizeof(Entry);
  }
  return bytes;
}

}  // namespace koios::core
