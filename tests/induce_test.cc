#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/source.h"
#include "induce/cluster.h"
#include "induce/inducer.h"
#include "validate/validator.h"
#include "workload/scenarios.h"

namespace dtdevolve {
namespace {

/// A source seeded with the bibliography DTD; every mixed-population
/// document has a foreign root tag, so the whole stream lands in the
/// repository.
std::unique_ptr<core::XmlSource> MakeSeededSource() {
  core::SourceOptions options;
  options.sigma = 0.5;
  options.auto_evolve = false;
  auto source = std::make_unique<core::XmlSource>(options);
  workload::ScenarioStream seed_stream = workload::MakeBibliographyScenario(1);
  EXPECT_TRUE(source->AddDtd("bibliography", seed_stream.InitialDtd()).ok());
  return source;
}

void FeedMixedPopulation(core::XmlSource& source, uint64_t seed,
                         size_t families, uint64_t docs_per_family) {
  workload::ScenarioStream stream =
      workload::MakeMixedPopulationScenario(seed, families, docs_per_family);
  while (!stream.Done()) {
    core::XmlSource::ProcessOutcome outcome = source.Process(stream.Next());
    ASSERT_FALSE(outcome.classified);
  }
}

TEST(RepositoryClustererTest, RecoversFamiliesAsClusters) {
  constexpr size_t kFamilies = 3;
  std::unique_ptr<core::XmlSource> owned = MakeSeededSource();
  core::XmlSource& source = *owned;
  FeedMixedPopulation(source, 7, kFamilies, 20);
  ASSERT_EQ(source.repository().size(), kFamilies * 20);

  induce::ClusterStats stats = source.cluster_stats();
  EXPECT_EQ(stats.clusters, kFamilies);
  EXPECT_EQ(stats.documents, kFamilies * 20);
  EXPECT_GE(stats.largest_cluster, 20u);
}

TEST(RepositoryClustererTest, IdenticalStructuresCollapseBeforeScoring) {
  induce::RepositoryClusterer clusterer;
  workload::ScenarioStream stream =
      workload::MakeMixedPopulationScenario(3, 1, 8);
  std::vector<xml::Document> docs;
  while (!stream.Done()) docs.push_back(stream.Next());
  for (size_t i = 0; i < docs.size(); ++i) {
    clusterer.Add(static_cast<int>(i), docs[i]);
  }
  induce::ClusterStats stats = clusterer.GetStats();
  EXPECT_EQ(stats.documents, docs.size());
  // One structural family: everything in one cluster, with fewer
  // distinct structures than documents (repeated structures dedup).
  EXPECT_EQ(stats.clusters, 1u);
  EXPECT_LE(stats.distinct_structures, stats.documents);

  // Removal untracks without disturbing the clustering.
  clusterer.Remove(0);
  EXPECT_EQ(clusterer.GetStats().documents, docs.size() - 1);
}

TEST(RepositoryClustererTest, MinClusterSizeFloorSuppressesSingletons) {
  induce::ClusterOptions options;
  options.min_cluster_size = 2;
  induce::RepositoryClusterer clusterer(options);
  workload::ScenarioStream a = workload::MakeMixedPopulationScenario(5, 1, 3);
  workload::ScenarioStream b =
      workload::MakeMixedPopulationScenario(6, 2, 1);  // 1 doc per family
  int id = 0;
  while (!a.Done()) clusterer.Add(id++, a.Next());
  b.Next();  // skip family 0 (already populated by `a`)
  clusterer.Add(id++, b.Next());  // single family-1 document
  std::vector<induce::Cluster> clusters = clusterer.Clusters();
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].members.size(), 3u);
}

TEST(InduceTest, OneCandidatePerFamilyValidatingItsCluster) {
  constexpr size_t kFamilies = 4;
  std::unique_ptr<core::XmlSource> owned = MakeSeededSource();
  core::XmlSource& source = *owned;
  FeedMixedPopulation(source, 11, kFamilies, 25);

  ASSERT_EQ(source.InduceCandidates(), kFamilies);
  std::set<std::string> names;
  size_t covered_members = 0;
  for (const induce::Candidate& candidate : source.candidates()) {
    EXPECT_GE(candidate.coverage, 0.95)
        << candidate.name << " coverage " << candidate.coverage;
    EXPECT_GT(candidate.margin, 0.0) << candidate.name;
    EXPECT_TRUE(candidate.ext.dtd().Check().ok());
    names.insert(candidate.name);
    covered_members += candidate.members.size();

    // The claim is honest: every claimed member really validates.
    validate::Validator validator(candidate.ext.dtd());
    for (int id : candidate.validated) {
      EXPECT_TRUE(validator.Validate(source.repository().Get(id)).valid)
          << candidate.name << " claimed member " << id;
    }
  }
  EXPECT_EQ(names.size(), kFamilies);            // collision-free names
  EXPECT_EQ(covered_members, kFamilies * 25);    // partition of the repo
}

TEST(InduceTest, AcceptPromotesDrainsAndRetiresCandidates) {
  std::unique_ptr<core::XmlSource> owned = MakeSeededSource();
  core::XmlSource& source = *owned;
  FeedMixedPopulation(source, 13, 2, 20);
  ASSERT_EQ(source.InduceCandidates(), 2u);

  const induce::Candidate& first = source.candidates().front();
  const uint64_t id = first.id;
  const size_t claimed = first.validated.size();
  const size_t repo_before = source.repository().size();

  StatusOr<core::XmlSource::AcceptOutcome> outcome =
      source.AcceptCandidate(id);
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_GE(outcome->reclassified, claimed);
  EXPECT_EQ(source.repository().size(), repo_before - outcome->reclassified);
  EXPECT_NE(source.FindDtd(outcome->dtd_name), nullptr);
  EXPECT_EQ(source.candidates_accepted(), 1u);
  // The set changed: every other pending candidate was retired.
  EXPECT_TRUE(source.candidates().empty());
  // The promotion shows in the event log.
  bool induced_event = false;
  for (const core::SourceEvent& event : source.EventsSince(0).events) {
    if (event.kind == core::SourceEvent::Kind::kDtdInduced) {
      EXPECT_EQ(event.dtd_name, outcome->dtd_name);
      induced_event = true;
    }
  }
  EXPECT_TRUE(induced_event);

  // Re-induction over the remaining family proposes again with a fresh,
  // never-reused id.
  ASSERT_EQ(source.InduceCandidates(), 1u);
  EXPECT_GT(source.candidates().front().id, id);

  // New arrivals of the accepted family now classify directly.
  workload::ScenarioStream fresh =
      workload::MakeMixedPopulationScenario(99, 2, 3);
  size_t classified = 0;
  while (!fresh.Done()) {
    if (source.Process(fresh.Next()).classified) ++classified;
  }
  EXPECT_GT(classified, 0u);
}

TEST(InduceTest, RejectDropsOnlyThatCandidate) {
  std::unique_ptr<core::XmlSource> owned = MakeSeededSource();
  core::XmlSource& source = *owned;
  FeedMixedPopulation(source, 17, 3, 15);
  ASSERT_EQ(source.InduceCandidates(), 3u);
  const uint64_t id = source.candidates()[1].id;
  ASSERT_TRUE(source.RejectCandidate(id).ok());
  EXPECT_EQ(source.candidates().size(), 2u);
  EXPECT_EQ(source.FindCandidate(id), nullptr);
  EXPECT_EQ(source.candidates_rejected(), 1u);
  EXPECT_TRUE(source.RejectCandidate(id).code() ==
              Status::Code::kNotFound);
  EXPECT_TRUE(source.AcceptCandidate(id).status().code() ==
              Status::Code::kNotFound);
}

TEST(InduceTest, InductionIsDeterministic) {
  auto fingerprint = [](core::XmlSource& source) {
    std::string out;
    for (const induce::Candidate& candidate : source.candidates()) {
      out += candidate.name + ":" +
             std::to_string(candidate.members.size()) + ":" +
             std::to_string(candidate.validated.size()) + ";";
    }
    return out;
  };
  std::unique_ptr<core::XmlSource> pa = MakeSeededSource();
  std::unique_ptr<core::XmlSource> pb = MakeSeededSource();
  core::XmlSource& a = *pa;
  core::XmlSource& b = *pb;
  FeedMixedPopulation(a, 23, 3, 18);
  FeedMixedPopulation(b, 23, 3, 18);
  a.InduceCandidates();
  b.InduceCandidates();
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

}  // namespace
}  // namespace dtdevolve
