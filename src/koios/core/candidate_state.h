// Per-query refinement state, kept flat: one slot per set, one plain record
// per admitted candidate, and one shared array of per-candidate bit words.
// A pruned candidate's record stops being reachable from its slot and stays
// in the arrays until a compaction.
#ifndef KOIOS_CORE_CANDIDATE_STATE_H_
#define KOIOS_CORE_CANDIDATE_STATE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "koios/index/set_collection.h"
#include "koios/util/types.h"

namespace koios::core {

/// State of one candidate set during refinement.
///
/// Lower bound (iLB): the partial greedy matching built from the token
/// stream. Because tuples arrive in non-increasing similarity order,
/// accepting every *valid* edge (both endpoints unmatched) reproduces
/// exactly the greedy matching restricted to the edges seen so far, which
/// is the largest possible iLB (Lemma 5). Self-match tuples (sim 1.0)
/// arrive first, so the score is automatically initialized to the vanilla
/// overlap |Q ∩ C| as the paper prescribes (§V).
///
/// Upper bound (iUB): NOTE — this deviates from the paper's Lemma 6, which
/// claims SO(C) <= S_i + m_i * s with S_i the greedy partial score. That
/// bound is unsound: the optimal matching may *re-match* greedily matched
/// elements and exceed it (take w(q1,t1)=1.0, w(q1,t2)=w(q2,t1)=0.99,
/// w(q2,t2)=0.85: after the stream passes 0.85, S_i=1.85, m_i=0, yet
/// SO=1.98). We use a provably sound bound with identical update mechanics
/// and cost: let R be the first min(|Q|,|C|) distinct query elements seen
/// with an edge to C (stream order makes the first edge of a row its row
/// maximum, and makes these rows the globally largest row maxima). Then
///
///   SO(C) <= Σ_{q ∈ R} rowmax(q) + (min(|Q|,|C|) − |R|) * s
///
/// because an optimal matching matches at most min(|Q|,|C|) query
/// elements, each contributing at most its row maximum, and every row
/// outside R has maximum <= s (unseen) and <= every retained row maximum.
/// The bucket filter of §V carries over unchanged with key m = capacity −
/// |R| and value rowsum. Once the stream is exhausted the slack term
/// vanishes (UpperBound(0)): a row without a retained maximum either has no
/// α-edge to the set or is dominated by the retained rows.
struct CandidateRecord {
  SetId set = kInvalidSet;
  /// min(|Q|, |C|).
  uint32_t capacity = 0;
  /// |R| — retained row maxima (at most capacity).
  uint32_t rows_seen = 0;
  /// l — greedily matched element pairs (at most capacity).
  uint32_t matched = 0;
  /// Where this candidate's bit words start in the table's word array.
  size_t words = 0;
  /// S_i — score of the partial greedy matching; also the current iLB
  /// (it dominates the single-heaviest-edge bound of Lemma 3a because the
  /// first accepted edge *is* the heaviest incident edge).
  Score partial_score = 0.0;
  /// Σ of retained row maxima (the bucket value).
  Score row_sum = 0.0;

  /// m = min(|Q|, |C|) − |R| — the bucket key of §V: how many matchable
  /// elements have no retained row maximum yet.
  uint32_t remaining() const { return capacity - rows_seen; }

  /// Sound iUB given the current stream similarity `s` (see above).
  Score UpperBound(Score s) const {
    return row_sum + static_cast<Score>(remaining()) * s;
  }
};

/// The refinement arena of one query. A set's slot holds kUnseen, kPruned
/// or the index of its record. Each record owns a run of the shared word
/// array: ⌈|Q|/64⌉ words of retained-row bits and as many of matched-query
/// bits, both indexed by query position, then ⌈|C|/64⌉ words of
/// matched-token bits, indexed by the token's position in the set's sorted
/// token list. Pruning leaves a record in place until the owner calls
/// Compact().
class CandidateTable {
 public:
  static constexpr uint32_t kUnseen = std::numeric_limits<uint32_t>::max();
  static constexpr uint32_t kPruned = kUnseen - 1;

  /// `sets` must outlive the table.
  CandidateTable(const index::SetCollection* sets, size_t query_size)
      : sets_(sets),
        query_size_(static_cast<uint32_t>(query_size)),
        query_words_((query_size + 63) / 64),
        slots_(sets->size(), kUnseen) {}

  /// kUnseen, kPruned, or the index of the set's live record.
  uint32_t slot(SetId id) const { return slots_[id]; }

  /// Admits set `id` (currently unseen) with capacity min(|Q|, `set_size`)
  /// — |C| for the 1:1 measure; returns the index of its fresh record.
  uint32_t Admit(SetId id, uint32_t set_size) {
    const uint32_t c = static_cast<uint32_t>(records_.size());
    CandidateRecord& r = records_.emplace_back();
    r.set = id;
    r.capacity = std::min(set_size, query_size_);
    r.words = words_.size();
    words_.resize(words_.size() + WordCount(id), 0);
    slots_[id] = c;
    return c;
  }

  /// Marks `id` pruned (an unseen set or a live candidate); it is never
  /// admitted again.
  void Prune(SetId id) { slots_[id] = kPruned; }

  bool alive(uint32_t c) const { return slots_[records_[c].set] == c; }
  const CandidateRecord& record(uint32_t c) const { return records_[c]; }
  /// Records admitted since the last compaction (live or pruned since).
  size_t size() const { return records_.size(); }

  /// Registers a stream edge (query_pos → candidate c, similarity s) for
  /// the upper bound. Returns true if a new row maximum was retained, i.e.
  /// the candidate's bucket key m dropped by one.
  bool AddRow(uint32_t c, uint32_t query_pos, Score s) {
    CandidateRecord& r = records_[c];
    if (r.rows_seen >= r.capacity ||
        !SetBit(words_.data() + r.words, query_pos)) {
      return false;
    }
    ++r.rows_seen;
    r.row_sum += s;
    return true;
  }

  /// Accepts the stream edge (query_pos, token, sim) into candidate c's
  /// partial greedy matching if it is *valid* — capacity remains and both
  /// endpoints are unmatched. `token` must belong to the set. Returns
  /// whether the edge was accepted.
  bool Match(uint32_t c, uint32_t query_pos, TokenId token, Score sim) {
    CandidateRecord& r = records_[c];
    if (r.matched >= r.capacity) return false;
    uint64_t* matched_query = words_.data() + r.words + query_words_;
    if (TestBit(matched_query, query_pos)) return false;
    if (!SetBit(matched_query + query_words_, TokenPosition(r.set, token))) {
      return false;
    }
    SetBit(matched_query, query_pos);
    ++r.matched;
    r.partial_score += sim;
    return true;
  }

  /// Moves the live candidates' records and bit words into freshly sized
  /// arrays, renumbering them 0, 1, ... in admission order, and calls
  /// moved(old_index, new_index) for each of them.
  template <typename F>
  void Compact(F&& moved) {
    size_t live = 0, live_words = 0;
    ForEachAlive([&](const CandidateRecord& r) {
      ++live;
      live_words += WordCount(r.set);
    });
    std::vector<CandidateRecord> records;
    std::vector<uint64_t> words;
    records.reserve(live);
    words.reserve(live_words);
    for (uint32_t c = 0; c < records_.size(); ++c) {
      if (!alive(c)) continue;
      CandidateRecord r = records_[c];
      const auto old_words = words_.begin() + r.words;
      r.words = words.size();
      words.insert(words.end(), old_words, old_words + WordCount(r.set));
      const uint32_t to = static_cast<uint32_t>(records.size());
      slots_[r.set] = to;
      records.push_back(r);
      moved(c, to);
    }
    records_.swap(records);
    words_.swap(words);
  }

  /// Calls f(record) for every live candidate, in admission order.
  template <typename F>
  void ForEachAlive(F&& f) const {
    for (uint32_t c = 0; c < records_.size(); ++c) {
      if (alive(c)) f(records_[c]);
    }
  }

  /// Bytes the arena holds now: records and bit words.
  size_t MemoryUsageBytes() const {
    return records_.capacity() * sizeof(CandidateRecord) +
           words_.capacity() * sizeof(uint64_t);
  }
  size_t SlotBytes() const { return slots_.capacity() * sizeof(uint32_t); }

 private:
  static bool TestBit(const uint64_t* bits, size_t i) {
    return (bits[i >> 6] >> (i & 63)) & 1;
  }
  /// Sets bit i; returns false if it was already set.
  static bool SetBit(uint64_t* bits, size_t i) {
    const uint64_t bit = uint64_t{1} << (i & 63);
    if (bits[i >> 6] & bit) return false;
    bits[i >> 6] |= bit;
    return true;
  }
  size_t WordCount(SetId id) const {
    return 2 * query_words_ + (sets_->SetSize(id) + 63) / 64;
  }
  size_t TokenPosition(SetId id, TokenId token) const {
    const std::span<const TokenId> tokens = sets_->Tokens(id);
    const auto it = std::lower_bound(tokens.begin(), tokens.end(), token);
    assert(it != tokens.end() && *it == token);
    return static_cast<size_t>(it - tokens.begin());
  }

  const index::SetCollection* sets_;
  uint32_t query_size_;
  size_t query_words_;
  std::vector<uint32_t> slots_;
  std::vector<CandidateRecord> records_;
  std::vector<uint64_t> words_;
};

}  // namespace koios::core

#endif  // KOIOS_CORE_CANDIDATE_STATE_H_
