#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "dtd/dtd_parser.h"
#include "dtd/dtd_writer.h"
#include "evolve/evolver.h"
#include "evolve/persist.h"
#include "evolve/recorder.h"
#include "workload/generator.h"
#include "workload/mutator.h"
#include "xml/parser.h"

namespace dtdevolve::evolve {
namespace {

ExtendedDtd MakeExtended(const char* dtd_text) {
  StatusOr<dtd::Dtd> dtd = dtd::ParseDtd(dtd_text);
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
  return ExtendedDtd(std::move(*dtd));
}

const char* kDtd = R"(
  <!ELEMENT a (b, c)>
  <!ELEMENT b (#PCDATA)>
  <!ELEMENT c (#PCDATA)>
)";

TEST(PersistTest, EmptyRoundTrip) {
  ExtendedDtd ext = MakeExtended(kDtd);
  std::string data = SerializeExtendedDtd(ext);
  StatusOr<ExtendedDtd> restored = DeserializeExtendedDtd(data);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(dtd::WriteDtd(restored->dtd()), dtd::WriteDtd(ext.dtd()));
  EXPECT_EQ(restored->documents_recorded(), 0u);
  EXPECT_TRUE(restored->all_stats().empty());
}

TEST(PersistTest, RoundTripPreservesEverything) {
  ExtendedDtd ext = MakeExtended(kDtd);
  Recorder recorder(ext);
  auto record = [&](const char* text, int times) {
    for (int i = 0; i < times; ++i) {
      StatusOr<xml::Document> doc = xml::ParseDocument(text);
      ASSERT_TRUE(doc.ok());
      recorder.RecordDocument(*doc);
    }
  };
  record("<a><b>1</b><c>2</c></a>", 5);
  record("<a><b>1</b><c>2</c><b>3</b><c>4</c><d><e>x</e></d></a>", 7);

  std::string data = SerializeExtendedDtd(ext);
  StatusOr<ExtendedDtd> restored = DeserializeExtendedDtd(data);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  EXPECT_EQ(restored->documents_recorded(), 12u);
  EXPECT_EQ(restored->total_elements_recorded(),
            ext.total_elements_recorded());
  EXPECT_DOUBLE_EQ(restored->MeanDivergence(), ext.MeanDivergence());

  const ElementStats* original = ext.FindStats("a");
  const ElementStats* copy = restored->FindStats("a");
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->valid_instances(), original->valid_instances());
  EXPECT_EQ(copy->invalid_instances(), original->invalid_instances());
  EXPECT_EQ(copy->sequences(), original->sequences());
  EXPECT_EQ(copy->labels().size(), original->labels().size());
  EXPECT_EQ(copy->labels().at("b").invalid.count_histogram,
            original->labels().at("b").invalid.count_histogram);
  EXPECT_DOUBLE_EQ(copy->labels().at("b").invalid.position_sum,
                   original->labels().at("b").invalid.position_sum);
  // Groups round-trip.
  EXPECT_EQ(copy->groups().size(), original->groups().size());
  // The nested plus structure of d (containing e) round-trips.
  ASSERT_NE(copy->labels().at("d").plus_structure, nullptr);
  const ElementStats& d = *copy->labels().at("d").plus_structure;
  EXPECT_EQ(d.invalid_instances(), 7u);
  ASSERT_NE(d.labels().at("e").plus_structure, nullptr);
  EXPECT_EQ(d.labels().at("e").plus_structure->text_instances(), 7u);
}

TEST(PersistTest, SerializationIsDeterministic) {
  ExtendedDtd ext = MakeExtended(kDtd);
  Recorder recorder(ext);
  StatusOr<xml::Document> doc =
      xml::ParseDocument("<a><b>1</b><z>2</z></a>");
  ASSERT_TRUE(doc.ok());
  recorder.RecordDocument(*doc);
  std::string once = SerializeExtendedDtd(ext);
  StatusOr<ExtendedDtd> restored = DeserializeExtendedDtd(once);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(SerializeExtendedDtd(*restored), once);
}

TEST(PersistTest, EvolutionAfterRestoreMatchesDirectEvolution) {
  // The load-bearing property: save/load must not change what evolution
  // produces.
  auto populate = [](ExtendedDtd& ext) {
    Recorder recorder(ext);
    workload::DocumentGenerator generator(
        ext.dtd(), workload::GeneratorOptions(), 404);
    workload::MutationOptions mutation;
    mutation.insert_probability = 0.5;
    mutation.duplicate_probability = 0.3;
    workload::Mutator mutator(mutation, 405);
    for (int i = 0; i < 40; ++i) {
      xml::Document doc = generator.Generate();
      mutator.Mutate(doc);
      recorder.RecordDocument(doc);
    }
  };

  ExtendedDtd direct = MakeExtended(kDtd);
  populate(direct);
  std::string snapshot = SerializeExtendedDtd(direct);
  EvolveDtd(direct, {});

  StatusOr<ExtendedDtd> restored = DeserializeExtendedDtd(snapshot);
  ASSERT_TRUE(restored.ok());
  EvolveDtd(*restored, {});

  EXPECT_EQ(dtd::WriteDtd(restored->dtd()), dtd::WriteDtd(direct.dtd()));
}

TEST(PersistTest, RejectsCorruptedInput) {
  EXPECT_FALSE(DeserializeExtendedDtd("").ok());
  EXPECT_FALSE(DeserializeExtendedDtd("bogus 1").ok());
  EXPECT_FALSE(DeserializeExtendedDtd("dtdevolve-stats 99").ok());

  ExtendedDtd ext = MakeExtended(kDtd);
  std::string data = SerializeExtendedDtd(ext);
  // Truncation anywhere must be detected, not crash.
  for (size_t cut : {data.size() / 4, data.size() / 2, data.size() - 3}) {
    StatusOr<ExtendedDtd> restored =
        DeserializeExtendedDtd(data.substr(0, cut));
    EXPECT_FALSE(restored.ok()) << "cut at " << cut;
  }
}

TEST(PersistFileTest, SaveThenLoadRoundTrips) {
  ExtendedDtd ext = MakeExtended(kDtd);
  Recorder recorder(ext);
  StatusOr<xml::Document> doc =
      xml::ParseDocument("<a><b>1</b><c>2</c><d>3</d></a>");
  ASSERT_TRUE(doc.ok());
  recorder.RecordDocument(*doc);

  const std::string path = testing::TempDir() + "persist_file_test.dtdstate";
  Status saved = SaveExtendedDtdFile(ext, path);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  // The write is atomic (tmp + rename): no temp file may survive.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());

  StatusOr<ExtendedDtd> restored = LoadExtendedDtdFile(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->documents_recorded(), 1u);
  EXPECT_EQ(SerializeExtendedDtd(*restored), SerializeExtendedDtd(ext));
  std::remove(path.c_str());
}

TEST(PersistFileTest, SaveReplacesExistingSnapshot) {
  const std::string path = testing::TempDir() + "persist_file_replace.dtdstate";
  ExtendedDtd first = MakeExtended(kDtd);
  ASSERT_TRUE(SaveExtendedDtdFile(first, path).ok());

  ExtendedDtd second = MakeExtended(kDtd);
  Recorder recorder(second);
  StatusOr<xml::Document> doc = xml::ParseDocument("<a><b>1</b><c>2</c></a>");
  ASSERT_TRUE(doc.ok());
  recorder.RecordDocument(*doc);
  ASSERT_TRUE(SaveExtendedDtdFile(second, path).ok());

  StatusOr<ExtendedDtd> restored = LoadExtendedDtdFile(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->documents_recorded(), 1u);
  std::remove(path.c_str());
}

TEST(PersistFileTest, LoadMissingFileIsNotFound) {
  StatusOr<ExtendedDtd> restored =
      LoadExtendedDtdFile(testing::TempDir() + "no_such_snapshot.dtdstate");
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), Status::Code::kNotFound);
}

TEST(PersistFileTest, TruncatedSnapshotRejectedWithCleanStatus) {
  ExtendedDtd ext = MakeExtended(kDtd);
  Recorder recorder(ext);
  StatusOr<xml::Document> doc =
      xml::ParseDocument("<a><b>1</b><c>2</c><z>3</z></a>");
  ASSERT_TRUE(doc.ok());
  recorder.RecordDocument(*doc);

  const std::string path = testing::TempDir() + "persist_file_trunc.dtdstate";
  ASSERT_TRUE(SaveExtendedDtdFile(ext, path).ok());

  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    data = buffer.str();
  }
  ASSERT_GT(data.size(), 8u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  }

  StatusOr<ExtendedDtd> restored = LoadExtendedDtdFile(path);
  EXPECT_FALSE(restored.ok());
  EXPECT_NE(restored.status().code(), Status::Code::kNotFound);
  std::remove(path.c_str());
}

TEST(PersistTest, PreservesAttlists) {
  ExtendedDtd ext = MakeExtended(R"(
    <!ELEMENT a (#PCDATA)>
    <!ATTLIST a id ID #REQUIRED>
  )");
  std::string data = SerializeExtendedDtd(ext);
  StatusOr<ExtendedDtd> restored = DeserializeExtendedDtd(data);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->dtd().FindElement("a")->attributes.size(), 1u);
}

// --- Frozen printf reference ---------------------------------------------

/// The `snprintf` serializer the production `std::to_chars` one replaced,
/// kept test-only so the two can be compared byte for byte.
void ReferenceOccurrence(const OccurrenceStats& occ, std::string& out) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer),
                "occ %" PRIu64 " %" PRIu64 " %" PRIu64 " %.17g %zu",
                occ.instances, occ.repeated, occ.occurrences,
                occ.position_sum, occ.count_histogram.size());
  out += buffer;
  for (const auto& [count, n] : occ.count_histogram) {
    std::snprintf(buffer, sizeof(buffer), " %u %" PRIu64, count, n);
    out += buffer;
  }
  out += '\n';
}

void ReferenceElementStats(const ElementStats& stats, std::string& out) {
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer),
                "counters %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                " %" PRIu64 " %" PRIu64 "\n",
                stats.valid_instances(), stats.invalid_instances(),
                stats.docs_with_valid(), stats.docs_with_invalid(),
                stats.text_instances(), stats.empty_instances());
  out += buffer;
  std::snprintf(buffer, sizeof(buffer), "labels %zu\n",
                stats.labels().size());
  out += buffer;
  for (const auto& [label, label_stats] : stats.labels()) {
    out += "label " + label + "\n";
    ReferenceOccurrence(label_stats.valid, out);
    ReferenceOccurrence(label_stats.invalid, out);
    if (label_stats.plus_structure != nullptr) {
      out += "plus 1\n";
      ReferenceElementStats(*label_stats.plus_structure, out);
    } else {
      out += "plus 0\n";
    }
  }
  std::snprintf(buffer, sizeof(buffer), "sequences %zu\n",
                stats.sequences().size());
  out += buffer;
  for (const auto& [labels, count] : stats.sequences()) {
    std::snprintf(buffer, sizeof(buffer), "seq %" PRIu64 " %zu", count,
                  labels.size());
    out += buffer;
    for (const std::string& label : labels) out += ' ' + label;
    out += '\n';
  }
  std::snprintf(buffer, sizeof(buffer), "groups %zu\n",
                stats.groups().size());
  out += buffer;
  for (const auto& [key, count] : stats.groups()) {
    std::snprintf(buffer, sizeof(buffer), "group %" PRIu64 " %u %zu", count,
                  key.repeat_count, key.labels.size());
    out += buffer;
    for (const std::string& label : key.labels) out += ' ' + label;
    out += '\n';
  }
  std::snprintf(buffer, sizeof(buffer), "attrs %zu\n",
                stats.attribute_counts().size());
  out += buffer;
  for (const auto& [name, count] : stats.attribute_counts()) {
    out += "attr " + name + " " + std::to_string(count) + "\n";
  }
}

/// Everything from the `aggregates` line on (the DTD header is plain
/// string concatenation in both versions).
std::string ReferenceStateTail(const ExtendedDtd& ext) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "aggregates %" PRIu64 " %" PRIu64 " %" PRIu64 " %.17g\n",
                ext.documents_recorded(), ext.total_elements_recorded(),
                ext.invalid_elements_recorded(), ext.divergence_sum());
  std::string out = buffer;
  std::snprintf(buffer, sizeof(buffer), "stats %zu\n",
                ext.all_stats().size());
  out += buffer;
  for (const auto& [name, stats] : ext.all_stats()) {
    out += "element " + name + "\n";
    ReferenceElementStats(stats, out);
  }
  return out;
}

TEST(PersistTest, ToCharsSerializationMatchesPrintfReference) {
  const double awkward[] = {
      0.0,
      -0.0,
      0.1,
      1.0 / 3.0,
      2.0 / 3.0,
      1e-5,
      123456789.125,
      1e16,
      1e17,
      9007199254740993.0,
      5e-324,
      2.2250738585072014e-308,
      1.7976931348623157e308,
      -4.35e-7,
      0.30000000000000004,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
  };
  const uint64_t counters[] = {0, 1, 9, 10, 4294967295ull, 4294967296ull,
                               18446744073709551615ull};
  constexpr size_t kNumCounters = sizeof(counters) / sizeof(counters[0]);
  size_t compared = 0;
  for (size_t i = 0; i < sizeof(awkward) / sizeof(awkward[0]); ++i) {
    ExtendedDtd ext = MakeExtended(kDtd);
    const uint64_t big = counters[i % kNumCounters];
    ext.RestoreAggregates(big, counters[(i + 1) % kNumCounters],
                          counters[(i + 2) % kNumCounters], awkward[i]);
    for (const char* element : {"a", "b"}) {
      ElementStats& stats = ext.StatsFor(element);
      stats.RestoreCounters(big, big / 3, counters[(i + 3) % kNumCounters],
                            7, 0, counters[(i + 4) % kNumCounters]);
      LabelStats& label = stats.labels()["d"];
      label.valid.instances = big;
      label.valid.position_sum = awkward[(i + 1) % 18];
      label.valid.count_histogram[4294967295u] = big;
      label.valid.count_histogram[1] = 2;
      label.invalid.occurrences = counters[(i + 5) % kNumCounters];
      label.invalid.position_sum = -awkward[i];
      label.plus_structure = std::make_unique<ElementStats>();
      label.plus_structure->RestoreCounters(1, 2, 3, big, 5, 6);
      label.plus_structure->labels()["e"].invalid.position_sum =
          awkward[(i + 7) % 18];
      stats.RestoreSequence({"b", "c", "d"}, big);
      stats.RestoreGroup(GroupKey{{"b", "c"}, 4294967295u}, big);
      stats.RestoreAttributeCount("id", big);
    }
    const std::string serialized = SerializeExtendedDtd(ext);
    const size_t head = serialized.find("\naggregates ");
    ASSERT_NE(head, std::string::npos);
    EXPECT_EQ(serialized.substr(head + 1), ReferenceStateTail(ext))
        << "case " << i;
    ++compared;
  }
  EXPECT_EQ(compared, 18u);
}

}  // namespace
}  // namespace dtdevolve::evolve
