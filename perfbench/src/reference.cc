#include "reference.h"

#include <cstdio>
#include <cstdlib>
#include <set>

#include "common.h"
#include "dtd/dtd_writer.h"

namespace perfbench {

namespace core = dtdevolve::core;

namespace {

/// A divergence as `/stats` prints it (%.6g), read back.
double AsServed(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return std::strtod(buffer, nullptr);
}

std::string Clip(const std::string& text) {
  constexpr size_t kMax = 160;
  std::string out = text.size() > kMax ? text.substr(0, kMax) + "..." : text;
  for (char& c : out) {
    if (c == '\n') c = ' ';
  }
  return out;
}

}  // namespace

size_t CompareStates(const std::string& tenant, const TenantState& expected,
                     const TenantState& actual, Compare scope,
                     std::vector<std::string>* notes) {
  size_t diffs = 0;
  auto note = [&](const std::string& field, const std::string& want,
                  const std::string& got) {
    ++diffs;
    notes->push_back(tenant + ": " + field + " expected " + Clip(want) +
                     ", got " + Clip(got));
  };
  auto same = [&](const std::string& field, uint64_t want, uint64_t got) {
    if (want != got) note(field, std::to_string(want), std::to_string(got));
  };
  same("documents_processed", expected.processed, actual.processed);
  same("documents_classified", expected.classified, actual.classified);
  same("evolutions_performed", expected.evolutions, actual.evolutions);
  same("repository_size", expected.repository, actual.repository);
  if (scope == Compare::kLive) {
    same("clusters", expected.clusters, actual.clusters);
    same("largest_cluster", expected.largest_cluster, actual.largest_cluster);
    same("candidates_pending", expected.candidates_pending,
         actual.candidates_pending);
    same("candidates_proposed", expected.candidates_proposed,
         actual.candidates_proposed);
    same("candidates_accepted", expected.candidates_accepted,
         actual.candidates_accepted);
    same("candidates_rejected", expected.candidates_rejected,
         actual.candidates_rejected);
  }
  std::set<std::string> names;
  for (const auto& [name, text] : expected.dtd_texts) names.insert(name);
  for (const auto& [name, text] : actual.dtd_texts) names.insert(name);
  for (const auto& [name, figures] : expected.dtds) names.insert(name);
  for (const auto& [name, figures] : actual.dtds) names.insert(name);
  for (const std::string& name : names) {
    auto want_text = expected.dtd_texts.find(name);
    auto got_text = actual.dtd_texts.find(name);
    const std::string missing = "(absent)";
    const std::string& want =
        want_text == expected.dtd_texts.end() ? missing : want_text->second;
    const std::string& got =
        got_text == actual.dtd_texts.end() ? missing : got_text->second;
    if (want != got) note("dtd " + name, want, got);

    const DtdFigures none;
    auto want_it = expected.dtds.find(name);
    auto got_it = actual.dtds.find(name);
    const DtdFigures& a = want_it == expected.dtds.end() ? none : want_it->second;
    const DtdFigures& b = got_it == actual.dtds.end() ? none : got_it->second;
    same(name + ".documents_recorded", a.recorded, b.recorded);
    // In process both sides are exact; a served figure is %.6g-rounded.
    if (a.divergence != b.divergence && AsServed(a.divergence) != b.divergence) {
      note(name + ".mean_divergence", std::to_string(a.divergence),
           std::to_string(b.divergence));
    }
    if (scope == Compare::kLive) {
      same(name + ".documents_ingested", a.ingested, b.ingested);
      same(name + ".evolutions", a.evolutions, b.evolutions);
    }
  }
  return diffs;
}

bool FetchTenantState(HttpClient& client, const std::string& tenant,
                      TenantState* out) {
  *out = TenantState();
  std::string body;
  Json stats;
  if (client.Get("/stats?tenant=" + tenant, &body) != 200 ||
      !ParseJson(body, &stats)) {
    return false;
  }
  auto count = [](const Json& value) {
    return static_cast<uint64_t>(value.number);
  };
  out->processed = count(stats["documents_processed"]);
  out->classified = count(stats["documents_classified"]);
  out->evolutions = count(stats["evolutions_performed"]);
  out->repository = count(stats["repository_size"]);
  const Json& repository = stats["repository"];
  out->clusters = count(repository["clusters"]);
  out->largest_cluster = count(repository["largest_cluster"]);
  out->candidates_pending = count(repository["candidates_pending"]);
  out->candidates_proposed = count(repository["candidates_proposed"]);
  out->candidates_accepted = count(repository["candidates_accepted"]);
  out->candidates_rejected = count(repository["candidates_rejected"]);
  for (const auto& [name, dtd] : stats["dtds"].fields) {
    DtdFigures figures;
    figures.recorded = count(dtd["documents_recorded"]);
    figures.divergence = dtd["mean_divergence"].number;
    figures.ingested = count(dtd["documents_ingested"]);
    figures.evolutions = count(dtd["evolutions"]);
    out->dtds[name] = figures;
  }
  Json names;
  if (client.Get("/dtds?tenant=" + tenant, &body) != 200 ||
      !ParseJson(body, &names)) {
    return false;
  }
  for (const Json& name : names["dtds"].items) {
    std::string text;
    if (client.Get("/dtds/" + name.text + "?tenant=" + tenant, &text) != 200) {
      return false;
    }
    out->dtd_texts[name.text] = text;
  }
  return true;
}

core::SourceOptions ServeSourceOptions(double tau) {
  core::SourceOptions options;
  options.sigma = 0.3;
  options.tau = tau;
  options.min_documents_before_check = 1;
  return options;
}

TenantState StateOfSource(const core::XmlSource& source) {
  TenantState state;
  state.processed = source.documents_processed();
  state.classified = source.documents_classified();
  state.evolutions = source.evolutions_performed();
  state.repository = source.repository().size();
  const dtdevolve::induce::ClusterStats clusters = source.cluster_stats();
  state.clusters = clusters.clusters;
  state.largest_cluster = clusters.largest_cluster;
  state.candidates_pending = source.candidates().size();
  state.candidates_proposed = source.candidates_proposed();
  state.candidates_accepted = source.candidates_accepted();
  state.candidates_rejected = source.candidates_rejected();
  for (const std::string& name : source.DtdNames()) {
    const dtdevolve::evolve::ExtendedDtd* ext = source.FindExtended(name);
    DtdFigures figures;
    figures.recorded = ext->documents_recorded();
    figures.divergence = ext->MeanDivergence();
    state.dtds[name] = figures;
    state.dtd_texts[name] = dtdevolve::dtd::WriteDtd(*source.FindDtd(name));
  }
  return state;
}

bool AddSeeds(const TenantStream& stream, core::XmlSource* source) {
  for (const SeedDtd& seed : stream.seeds) {
    if (!source->AddDtdText(seed.name, seed.text).ok()) return false;
  }
  return true;
}

ReferenceResult ReplayTenant(const TenantStream& stream,
                             const std::vector<TenantEvent>& events,
                             double tau) {
  ReferenceResult result;
  core::SourceOptions options = ServeSourceOptions(tau);
  // Kept instances are not observable over HTTP; skipping them keeps
  // the reference's memory small without changing any served figure.
  options.keep_documents = false;
  core::XmlSource source(options);
  if (!AddSeeds(stream, &source)) {
    result.ok = false;
    return result;
  }
  std::map<std::string, uint64_t> ingested;
  std::map<std::string, uint64_t> evolved;
  for (const TenantEvent& event : events) {
    if (event.induce) {
      result.repository_at_induce.push_back(source.repository().size());
      const size_t accepts = RunInduceRound(source, [](const auto&) {});
      if (accepts != event.accepts) ++result.accept_mismatches;
      continue;
    }
    auto outcome = source.ProcessText(stream.docs[event.doc]);
    if (!outcome.ok()) {
      result.ok = false;
      continue;
    }
    if (outcome->classified) ++ingested[outcome->dtd_name];
    if (outcome->evolved) ++evolved[outcome->dtd_name];
  }
  result.state = StateOfSource(source);
  for (auto& [name, figures] : result.state.dtds) {
    figures.ingested = ingested[name];
    figures.evolutions = evolved[name];
  }
  return result;
}

}  // namespace perfbench
