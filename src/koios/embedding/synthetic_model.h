// Synthetic embedding model replacing the paper's pre-trained FastText
// vectors. The vocabulary is partitioned into *concept
// clusters*: each cluster has a random unit centroid, and member tokens are
// centroid + Gaussian noise, re-normalized. Within a cluster, cosine
// similarities concentrate around a controllable level (tighter noise =>
// higher similarity); across clusters, similarities concentrate near 0 in
// high dimension. This reproduces the similarity landscape Koios' filters
// face with real embeddings: sparse high-similarity neighborhoods on top of
// an overwhelming low-similarity mass.
#ifndef KOIOS_EMBEDDING_SYNTHETIC_MODEL_H_
#define KOIOS_EMBEDDING_SYNTHETIC_MODEL_H_

#include <cstddef>
#include <vector>

#include "koios/embedding/embedding_store.h"
#include "koios/util/rng.h"
#include "koios/util/types.h"

namespace koios::embedding {

struct SyntheticModelSpec {
  size_t vocab_size = 10000;
  size_t dim = 64;
  /// Average tokens per concept cluster (cluster sizes are geometric-ish,
  /// at least 1). Larger clusters => more semantic neighbors per token.
  double avg_cluster_size = 8.0;
  /// Noise scale relative to the centroid. 0.0 makes all cluster members
  /// identical (sim 1.0); ~0.35 yields intra-cluster cosines mostly in
  /// [0.75, 0.95], a good match for FastText neighborhoods above α = 0.7.
  double noise_sigma = 0.35;
  /// Fraction of the vocabulary covered by the embedding store; remaining
  /// tokens are out-of-vocabulary (the paper filters OpenData/WDC sets at
  /// 70% coverage, so some OOV mass is realistic).
  double coverage = 0.95;
  uint64_t seed = 42;
};

/// Generates an EmbeddingStore for TokenIds [0, vocab_size) and remembers
/// the cluster of each token so tests can assert on the similarity
/// structure.
class SyntheticEmbeddingModel {
 public:
  explicit SyntheticEmbeddingModel(const SyntheticModelSpec& spec);

  const EmbeddingStore& store() const { return store_; }
  EmbeddingStore& mutable_store() { return store_; }

  /// Cluster id of a token (tokens are clustered whether or not covered).
  uint32_t ClusterOf(TokenId token) const { return cluster_of_[token]; }
  size_t num_clusters() const { return num_clusters_; }

  const SyntheticModelSpec& spec() const { return spec_; }

 private:
  SyntheticModelSpec spec_;
  EmbeddingStore store_;
  std::vector<uint32_t> cluster_of_;
  size_t num_clusters_ = 0;
};

}  // namespace koios::embedding

#endif  // KOIOS_EMBEDDING_SYNTHETIC_MODEL_H_
