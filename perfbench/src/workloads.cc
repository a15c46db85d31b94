#include "workloads.h"

#include <cctype>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <utility>

#include "dtd/dtd_parser.h"
#include "dtd/dtd_writer.h"
#include "workload/generator.h"
#include "workload/mutator.h"
#include "workload/scenarios.h"
#include "xml/writer.h"

namespace perfbench {

namespace wl = dtdevolve::workload;
using dtdevolve::dtd::Dtd;

namespace {

// The mail archive most of the repository's experiments drift away from.
constexpr const char* kMailDtd = R"(
<!ELEMENT mail (from, to+, subject?, body)>
<!ELEMENT from (#PCDATA)>
<!ELEMENT to (#PCDATA)>
<!ELEMENT subject (#PCDATA)>
<!ELEMENT body (#PCDATA)>
)";

std::string Compact(const dtdevolve::xml::Document& doc) {
  dtdevolve::xml::WriteOptions options;
  options.indent = false;
  return dtdevolve::xml::WriteDocument(doc, options);
}

SeedDtd SeedOf(const std::string& name, const Dtd& dtd) {
  return {name, dtdevolve::dtd::WriteDtd(dtd)};
}

/// A scenario stream long enough for `docs` documents, its phases
/// stretched evenly over them.
wl::ScenarioStream Stretched(wl::ScenarioStream (*make)(uint64_t, uint64_t),
                             uint64_t seed, size_t docs) {
  const size_t phases = make(seed, 1).num_phases();
  return make(seed, (docs + phases - 1) / phases);
}

/// Replaces the letters and digits of every text node under `element`
/// with letters drawn from `rng`, keeping each text's length: the bytes
/// change with the seed, the structure and the parse work do not.
void ReseedText(dtdevolve::xml::Element& element, std::mt19937_64& rng) {
  for (std::unique_ptr<dtdevolve::xml::Node>& child : element.children()) {
    if (!child->is_text()) {
      ReseedText(static_cast<dtdevolve::xml::Element&>(*child), rng);
      continue;
    }
    auto& text = static_cast<dtdevolve::xml::Text&>(*child);
    std::string value = text.value();
    for (char& c : value) {
      if (std::isalnum(static_cast<unsigned char>(c))) {
        c = static_cast<char>('a' + rng() % 26);
      }
    }
    text.set_value(std::move(value));
  }
}

std::vector<std::string> Take(wl::ScenarioStream& stream, size_t docs) {
  std::vector<std::string> out;
  out.reserve(docs);
  for (size_t i = 0; i < docs; ++i) out.push_back(Compact(stream.Next()));
  return out;
}

/// Mixed-population family `family` with every element name suffixed by
/// `_g<generation>`: each generation is a structurally new family with a
/// vocabulary disjoint from every other, so it lands in the repository
/// until an induce round adopts it.
Dtd FamilyGeneration(size_t family, size_t generation) {
  const Dtd base = wl::MixedPopulationFamilyDtd(family);
  const std::vector<std::string> names = base.ElementNames();
  const std::set<std::string> known(names.begin(), names.end());
  const std::string suffix = "_g" + std::to_string(generation);
  const std::string text = dtdevolve::dtd::WriteDtd(base);
  std::string renamed;
  size_t i = 0;
  while (i < text.size()) {
    if (!std::isalpha(static_cast<unsigned char>(text[i]))) {
      renamed.push_back(text[i++]);
      continue;
    }
    size_t end = i;
    while (end < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[end])) ||
            text[end] == '_')) {
      ++end;
    }
    const std::string token = text.substr(i, end - i);
    renamed += token;
    if (known.count(token) != 0) renamed += suffix;
    i = end;
  }
  return std::move(
      dtdevolve::dtd::ParseDtd(renamed, base.root_name() + suffix).value());
}

/// Evolve-induce tenant: drifting scenario cycles (each cycle replays the
/// scenario's phases from phase 0, so the evolved DTD is pulled back and
/// forth and evolution keeps firing) with every `kFamilyEvery`-th
/// document drawn from the current family generation instead. One
/// generation per induce interval, so each induce round adopts the
/// family that filled the repository since the previous round.
///
/// The structure comes from `seed` and the text from `text_seed`. How
/// often the set evolves is chaotic in the structure: over ten
/// structure seeds the reference step saw 31 to 392 evolutions, and the
/// server's CPU per document followed them. The benchmark therefore
/// keeps the structure fixed and lets the run's seed vary the text.
TenantStream EvolveTenant(const std::string& name,
                          wl::ScenarioStream (*make)(uint64_t, uint64_t),
                          size_t family_base, uint64_t seed,
                          uint64_t text_seed, size_t docs) {
  constexpr size_t kFamilyEvery = 5;
  constexpr uint64_t kDocsPerPhase = 150;
  constexpr size_t kInduceEvery = 1000;
  constexpr double kInsertProbability = 0.1;
  TenantStream tenant;
  tenant.name = name;
  wl::ScenarioStream first = make(seed, kDocsPerPhase);
  tenant.seeds.push_back(SeedOf(name, first.InitialDtd()));

  // Fresh element names keep arriving (a vocabulary far larger than the
  // run uses), so the recorded divergence keeps climbing past τ and the
  // set keeps evolving instead of settling on the union of the phases.
  wl::MutationOptions mutation;
  mutation.insert_probability = kInsertProbability;
  mutation.drop_probability = kInsertProbability / 2;
  mutation.recursive = false;
  for (int tag = 0; tag < 4096; ++tag) {
    std::string name = "x";
    name += std::to_string(tag);
    mutation.new_tags.push_back(std::move(name));
  }
  wl::Mutator mutator(mutation, seed + 17);
  std::mt19937_64 text_rng(text_seed);
  std::unique_ptr<wl::ScenarioStream> stream;
  uint64_t cycle = 0;
  std::map<size_t, std::pair<std::unique_ptr<Dtd>,
                             std::unique_ptr<wl::DocumentGenerator>>>
      families;
  tenant.docs.reserve(docs);
  for (size_t k = 0; k < docs; ++k) {
    if (k % kFamilyEvery == kFamilyEvery - 1) {
      const size_t generation = k / kInduceEvery;
      auto& family = families[generation];
      if (family.first == nullptr) {
        family.first = std::make_unique<Dtd>(
            FamilyGeneration(family_base + generation % 3, generation));
        family.second = std::make_unique<wl::DocumentGenerator>(
            *family.first, wl::GeneratorOptions(),
            seed * 131 + generation);
      }
      dtdevolve::xml::Document doc = family.second->Generate();
      ReseedText(doc.root(), text_rng);
      tenant.docs.push_back(Compact(doc));
      continue;
    }
    if (stream == nullptr || stream->Done()) {
      stream = std::make_unique<wl::ScenarioStream>(
          make(seed + 1000 * cycle++, kDocsPerPhase));
    }
    dtdevolve::xml::Document doc = stream->Next();
    mutator.Mutate(doc);
    ReseedText(doc.root(), text_rng);
    tenant.docs.push_back(Compact(doc));
  }
  for (size_t k = kInduceEvery; k < docs; k += kInduceEvery) {
    tenant.induce_points.push_back(k);
  }
  return tenant;
}

}  // namespace

// Reference rates sit near a quarter of the saturation rate measured on
// a 4-core virtual machine, so the climb crosses the knee well inside
// its range. Ack limits sit above the tail a scheduling stall or an
// induce round's pause causes there, so a climb ends where the server
// falls behind rather than at the first stall.
bool WorkloadSettings(const std::string& name, WorkloadSpec* spec) {
  *spec = WorkloadSpec();
  spec->name = name;
  if (name == "homog-durable") {
    // Durable ack path: every document is fsynced before its ack.
    spec->fsync_policy = "always";
    spec->reference_rate = 1000;
    spec->ack_limit_ms = 100;
    spec->trace_docs_per_tenant = 1500;
    return true;
  }
  if (name == "drift-miss") {
    // Memo-miss path: the WAL is left to the OS.
    spec->fsync_policy = "none";
    spec->reference_rate = 5000;
    spec->ack_limit_ms = 150;
    spec->trace_docs_per_tenant = 1500;
    return true;
  }
  if (name == "evolve-induce") {
    spec->fsync_policy = "interval";
    spec->checkpoint_interval_ms = 1000;
    spec->tau = 0.05;
    spec->reference_rate = 4000;
    spec->ack_limit_ms = 150;
    spec->trace_docs_per_tenant = 3000;
    return true;
  }
  return false;
}

bool BuildWorkload(const std::string& name, uint64_t seed,
                   size_t docs_per_tenant, WorkloadSpec* spec) {
  if (!WorkloadSettings(name, spec)) return false;
  if (name == "homog-durable") {
    // Bibliography and news scenario streams: a handful of structures
    // repeated, so the classification memo answers nearly every
    // document and scoring all but disappears.
    for (auto [tenant_name, make, offset] :
         {std::tuple{"bibliography", &wl::MakeBibliographyScenario, 0},
          std::tuple{"news", &wl::MakeNewsScenario, 1}}) {
      wl::ScenarioStream stream =
          Stretched(make, seed * 7 + offset, docs_per_tenant);
      TenantStream tenant;
      tenant.name = tenant_name;
      tenant.seeds.push_back(SeedOf(tenant_name, stream.InitialDtd()));
      tenant.docs = Take(stream, docs_per_tenant);
      spec->tenants.push_back(std::move(tenant));
    }
    return true;
  }
  if (name == "drift-miss") {
    // Recursive forum threads, drifting catalogs and mail damaged at
    // drift 0.3: few repeated structures, so the memo mostly misses and
    // every miss scores the whole seeded set.
    wl::ScenarioStream forum =
        Stretched(&wl::MakeForumScenario, seed * 7 + 2, docs_per_tenant);
    wl::ScenarioStream catalog =
        Stretched(&wl::MakeCatalogScenario, seed * 7 + 3, docs_per_tenant);
    std::vector<SeedDtd> seeds = {
        SeedOf("forum", forum.InitialDtd()),
        SeedOf("catalog", catalog.InitialDtd()),
        {"mail", kMailDtd},
    };
    TenantStream forum_tenant{"forum", seeds, Take(forum, docs_per_tenant),
                              {}};
    TenantStream catalog_tenant{"catalog", seeds,
                                Take(catalog, docs_per_tenant), {}};

    constexpr double kDrift = 0.3;
    const Dtd mail = std::move(dtdevolve::dtd::ParseDtd(kMailDtd).value());
    wl::DocumentGenerator generator(mail, wl::GeneratorOptions(),
                                    seed * 7 + 4);
    wl::MutationOptions mutation;
    mutation.drop_probability = kDrift * 0.5;
    mutation.insert_probability = kDrift;
    mutation.duplicate_probability = kDrift * 0.5;
    mutation.new_tags = {"cc", "priority"};
    wl::Mutator mutator(mutation, seed * 7 + 5);
    TenantStream mail_tenant{"mail", seeds, {}, {}};
    mail_tenant.docs.reserve(docs_per_tenant);
    for (size_t i = 0; i < docs_per_tenant; ++i) {
      dtdevolve::xml::Document doc = generator.Generate();
      mutator.Mutate(doc);
      mail_tenant.docs.push_back(Compact(doc));
    }
    spec->tenants = {std::move(forum_tenant), std::move(catalog_tenant),
                     std::move(mail_tenant)};
    return true;
  }
  // evolve-induce: the structure of seed 3 (160 evolutions over the
  // reference step), the text of the run's seed.
  constexpr uint64_t kStructureSeed = 3;
  spec->tenants.push_back(EvolveTenant(
      "bibliography", &wl::MakeBibliographyScenario, 0,
      kStructureSeed * 7 + 6, seed * 7 + 6, docs_per_tenant));
  spec->tenants.push_back(EvolveTenant("news", &wl::MakeNewsScenario, 3,
                                       kStructureSeed * 7 + 7, seed * 7 + 7,
                                       docs_per_tenant));
  return true;
}

}  // namespace perfbench
