#ifndef DTDEVOLVE_INDUCE_CLUSTER_H_
#define DTDEVOLVE_INDUCE_CLUSTER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "dtd/dtd.h"
#include "similarity/similarity.h"
#include "xml/document.h"

namespace dtdevolve::induce {

/// Knobs of the repository clustering step.
struct ClusterOptions {
  /// Minimum symmetrized structural similarity for a document structure to
  /// join an existing cluster (agglomerative merge threshold).
  double merge_threshold = 0.55;
  /// Clusters with fewer member documents are never reported (and thus
  /// never induce a candidate DTD).
  size_t min_cluster_size = 2;
  /// How many structure exemplars per cluster an arrival is scored
  /// against (bounded max-linkage); higher is more accurate, slower.
  size_t max_probes_per_cluster = 4;
  /// Similarity knobs for the pairwise measure, normally the same options
  /// the classifier uses.
  similarity::SimilarityOptions similarity;
};

/// One cluster of structurally similar repository documents.
struct Cluster {
  /// Repository ids of the member documents, ascending. Repository ids
  /// are never reused (`classify::Repository` hands them out from a
  /// monotonic counter), so these remain meaningful identifiers even
  /// after members leave the repository.
  std::vector<int> members;
  /// Number of distinct structural fingerprints among the members.
  size_t distinct_structures = 0;
  /// Repository id of the exemplar document (smallest id of the first
  /// structure group).
  int exemplar = -1;
};

/// Aggregate view of the clusterer for `/stats`.
struct ClusterStats {
  /// Non-empty clusters, including ones below the size floor.
  size_t clusters = 0;
  /// Member count of the largest cluster.
  size_t largest_cluster = 0;
  /// Documents currently tracked (== repository size when kept in sync).
  size_t documents = 0;
  /// Distinct structural fingerprints across all clusters.
  size_t distinct_structures = 0;
  /// Structure groups held, including groups with no live member (a
  /// group is never dropped: see `RepositoryClusterer::Remove`).
  size_t groups = 0;
};

/// Incremental structural clustering over the repository of unclassified
/// documents. Documents are first collapsed by their root subtree
/// fingerprint (`similarity::SubtreeFingerprints`) — identical structures
/// join their group in O(1) without any similarity evaluation. A *new*
/// structure gets a single-document union DTD (`baseline::InferNaiveDtd`)
/// plus a `SimilarityEvaluator` over it, is scored against bounded
/// max-linkage exemplars of every existing cluster with the symmetrized
/// measure 0.5·(sim(A→B) + sim(B→A)), and joins the best cluster at or
/// above the merge threshold (else founds its own). `Consolidate` runs
/// the remaining agglomerative merges between whole clusters.
///
/// Everything is deterministic in insertion order: no randomness, ties
/// broken toward the earliest-created cluster. Not thread-safe; callers
/// (XmlSource) serialize access like every other mutating entry point.
class RepositoryClusterer {
 public:
  explicit RepositoryClusterer(ClusterOptions options = {});

  RepositoryClusterer(const RepositoryClusterer&) = delete;
  RepositoryClusterer& operator=(const RepositoryClusterer&) = delete;

  /// Tracks repository document `id`. Re-adding a known id re-files it
  /// under the (possibly changed) document's structure.
  void Add(int id, const xml::Document& doc);

  /// Untracks `id` (the document was re-classified out of the
  /// repository). Unknown ids are ignored. The structure group and its
  /// evaluator are kept so an identical later arrival still joins in
  /// O(1).
  void Remove(int id);

  /// Runs the pending agglomerative merges: clusters whose bounded
  /// max-linkage similarity reaches the merge threshold are unified.
  /// Returns the number of merges performed.
  size_t Consolidate();

  /// Clusters meeting the size floor, ordered by ascending exemplar id.
  std::vector<Cluster> Clusters() const;

  ClusterStats GetStats() const;

  const ClusterOptions& options() const { return options_; }

 private:
  /// One distinct document structure: the exemplar document, the
  /// single-document DTD inferred from it and its similarity evaluator.
  struct Group {
    uint64_t fp_hi = 0;
    uint64_t fp_lo = 0;
    xml::Document exemplar;
    std::unique_ptr<dtd::Dtd> dtd;
    std::unique_ptr<similarity::SimilarityEvaluator> evaluator;
    std::set<int> ids;
    size_t cluster = 0;
  };

  double GroupSimilarity(const Group& a, const Group& b) const;
  /// Bounded max-linkage similarity of group `g` against cluster `ci`.
  double ClusterSimilarity(const Group& g, size_t ci) const;

  ClusterOptions options_;
  std::vector<std::unique_ptr<Group>> groups_;
  /// (fp_hi, fp_lo) → index into groups_.
  std::map<std::pair<uint64_t, uint64_t>, size_t> by_fingerprint_;
  std::map<int, size_t> by_id_;
  /// Cluster → group indices, in creation order. Merged-away clusters
  /// become empty vectors (skipped everywhere).
  std::vector<std::vector<size_t>> clusters_;
};

}  // namespace dtdevolve::induce

#endif  // DTDEVOLVE_INDUCE_CLUSTER_H_
