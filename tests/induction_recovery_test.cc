// Durability of the induce-accept lifecycle: the WAL record round-trips,
// replay reproduces a live accept exactly (registration + event +
// repository drain), and a checkpoint taken after an accept restores the
// induced DTD even though the seed set never knew its name. Under both
// the `induction` and `durability` ctest labels.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/source.h"
#include "dtd/dtd_writer.h"
#include "store/checkpoint.h"
#include "store/induce_record.h"
#include "store/wal.h"
#include "workload/scenarios.h"
#include "xml/writer.h"

namespace dtdevolve::store {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "induction_recovery_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

WalOptions OptionsFor(const std::string& dir) {
  WalOptions options;
  options.dir = dir;
  options.fsync_policy = FsyncPolicy::kNone;  // speed; no crash here
  return options;
}

core::SourceOptions SeedOptions() {
  core::SourceOptions options;
  options.sigma = 0.5;
  options.auto_evolve = false;
  return options;
}

std::unique_ptr<core::XmlSource> MakeSeededSource() {
  auto source = std::make_unique<core::XmlSource>(SeedOptions());
  workload::ScenarioStream seed = workload::MakeBibliographyScenario(1);
  EXPECT_TRUE(source->AddDtd("bibliography", seed.InitialDtd()).ok());
  return source;
}

/// The ingest loop of a durable server: every document is appended to
/// the WAL, then applied. Returns the document texts in order.
std::vector<std::string> IngestMixedPopulation(core::XmlSource& source,
                                               Wal& wal, uint64_t seed,
                                               size_t families,
                                               uint64_t docs_per_family) {
  std::vector<std::string> texts;
  workload::ScenarioStream stream =
      workload::MakeMixedPopulationScenario(seed, families, docs_per_family);
  while (!stream.Done()) {
    std::string text = xml::WriteDocument(stream.Next());
    EXPECT_TRUE(wal.Append(text).ok());
    EXPECT_TRUE(source.ProcessText(text).ok());
    texts.push_back(std::move(text));
  }
  return texts;
}

/// Induces, accepts the first candidate, and logs the accept — the live
/// half of the durability contract under test.
std::string AcceptFirstCandidate(core::XmlSource& source, Wal& wal) {
  EXPECT_GT(source.InduceCandidates(), 0u);
  const induce::Candidate& first = source.candidates().front();
  const std::string record =
      EncodeInduceAcceptRecord(first.name, first.ext);
  EXPECT_TRUE(wal.Append(record).ok());
  StatusOr<core::XmlSource::AcceptOutcome> outcome =
      source.AcceptCandidate(first.id);
  EXPECT_TRUE(outcome.ok());
  return outcome.ok() ? outcome->dtd_name : "";
}

TEST(InduceRecordTest, EncodeDecodeRoundTrip) {
  evolve::ExtendedDtd ext(workload::MixedPopulationFamilyDtd(0));
  const std::string payload = EncodeInduceAcceptRecord("induced-invoice", ext);
  ASSERT_TRUE(IsInduceAcceptRecord(payload));
  StatusOr<InduceAcceptRecord> decoded = DecodeInduceAcceptRecord(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->name, "induced-invoice");
  EXPECT_EQ(dtd::WriteDtd(decoded->ext.dtd()), dtd::WriteDtd(ext.dtd()));
}

TEST(InduceRecordTest, XmlPayloadsAreNotInduceRecords) {
  // Document payloads always start with '<'; the dispatch must never
  // mistake one for an accept record (or vice versa).
  EXPECT_FALSE(IsInduceAcceptRecord("<mail><body>x</body></mail>"));
  evolve::ExtendedDtd ext(workload::MixedPopulationFamilyDtd(1));
  EXPECT_NE(EncodeInduceAcceptRecord("n", ext).front(), '<');
}

TEST(InduceRecordTest, DecodeRejectsCorruptPayloads) {
  evolve::ExtendedDtd ext(workload::MixedPopulationFamilyDtd(2));
  const std::string good = EncodeInduceAcceptRecord("induced-recipe", ext);
  // Truncation anywhere in the body must fail, not misparse.
  EXPECT_FALSE(DecodeInduceAcceptRecord(good.substr(0, good.size() / 2)).ok());
  EXPECT_FALSE(
      DecodeInduceAcceptRecord(std::string(kInduceAcceptHeader)).ok());
  EXPECT_FALSE(DecodeInduceAcceptRecord("dtdevolve-induce-accept 2\n").ok());
}

TEST(InductionRecoveryTest, ReplayReproducesALiveAccept) {
  const std::string dir = FreshDir("replay");
  std::string induced_name;
  uint64_t live_processed = 0;
  size_t live_repository = 0;
  std::string live_dtd_text;
  {
    WalReplay replay;
    StatusOr<std::unique_ptr<Wal>> wal = Wal::Open(OptionsFor(dir), 0, &replay);
    ASSERT_TRUE(wal.ok());
    std::unique_ptr<core::XmlSource> live = MakeSeededSource();
    IngestMixedPopulation(*live, **wal, 31, 2, 12);
    induced_name = AcceptFirstCandidate(*live, **wal);
    ASSERT_FALSE(induced_name.empty());
    live_processed = live->documents_processed();
    live_repository = live->repository().size();
    live_dtd_text = dtd::WriteDtd(*live->FindDtd(induced_name));
  }

  // Boot a fresh process: seed DTDs only, then recovery.
  std::unique_ptr<core::XmlSource> recovered = MakeSeededSource();
  RecoveryReport report;
  StatusOr<std::unique_ptr<Wal>> wal =
      RecoverSource(*recovered, OptionsFor(dir), &report);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(report.replayed_records, 2 * 12 + 1u);

  // Same DTD set (including the induced one, declaration-identical),
  // same counters, same drained repository, same event.
  ASSERT_NE(recovered->FindDtd(induced_name), nullptr);
  EXPECT_EQ(dtd::WriteDtd(*recovered->FindDtd(induced_name)), live_dtd_text);
  EXPECT_EQ(recovered->documents_processed(), live_processed);
  EXPECT_EQ(recovered->repository().size(), live_repository);
  EXPECT_EQ(recovered->candidates_accepted(), 1u);
  bool induced_event = false;
  for (const core::SourceEvent& event : recovered->EventsSince(0).events) {
    if (event.kind == core::SourceEvent::Kind::kDtdInduced) {
      induced_event = true;
      EXPECT_EQ(event.dtd_name, induced_name);
    }
  }
  EXPECT_TRUE(induced_event);

  // New members of the induced family classify on the recovered source.
  workload::ScenarioStream fresh =
      workload::MakeMixedPopulationScenario(77, 2, 2);
  size_t classified = 0;
  while (!fresh.Done()) {
    if (recovered->Process(fresh.Next()).classified) ++classified;
  }
  EXPECT_GT(classified, 0u);
}

TEST(InductionRecoveryTest, CheckpointRestoresInducedDtdByRegistration) {
  const std::string dir = FreshDir("checkpoint");
  std::string induced_name;
  size_t live_repository = 0;
  std::string live_dtd_text;
  {
    WalReplay replay;
    StatusOr<std::unique_ptr<Wal>> wal = Wal::Open(OptionsFor(dir), 0, &replay);
    ASSERT_TRUE(wal.ok());
    std::unique_ptr<core::XmlSource> live = MakeSeededSource();
    IngestMixedPopulation(*live, **wal, 41, 2, 10);
    induced_name = AcceptFirstCandidate(*live, **wal);
    ASSERT_FALSE(induced_name.empty());
    live_repository = live->repository().size();
    live_dtd_text = dtd::WriteDtd(*live->FindDtd(induced_name));

    // Checkpoint covering everything, then truncate the WAL: the accept
    // now survives *only* inside the checkpoint.
    CheckpointData data = CaptureCheckpoint(*live, (*wal)->next_lsn() - 1);
    ASSERT_TRUE(WriteCheckpoint(dir, data).ok());
    ASSERT_TRUE((*wal)->TruncateThrough(data.lsn).ok());
  }

  // The fresh boot registers only the seed DTDs; the checkpoint's
  // induced snapshot has no seed to restore over, so recovery must
  // create it (RegisterInducedDtd fallback) rather than fail kNotFound.
  std::unique_ptr<core::XmlSource> recovered = MakeSeededSource();
  RecoveryReport report;
  StatusOr<std::unique_ptr<Wal>> wal =
      RecoverSource(*recovered, OptionsFor(dir), &report);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(report.replayed_records, 0u);
  EXPECT_EQ(report.checkpoint_dtds, 2u);

  ASSERT_NE(recovered->FindDtd(induced_name), nullptr);
  EXPECT_EQ(dtd::WriteDtd(*recovered->FindDtd(induced_name)), live_dtd_text);
  EXPECT_EQ(recovered->repository().size(), live_repository);

  // And the restored evaluator works: induced-family documents classify.
  workload::ScenarioStream fresh =
      workload::MakeMixedPopulationScenario(78, 2, 2);
  size_t classified = 0;
  while (!fresh.Done()) {
    if (recovered->Process(fresh.Next()).classified) ++classified;
  }
  EXPECT_GT(classified, 0u);
}

}  // namespace
}  // namespace dtdevolve::store
