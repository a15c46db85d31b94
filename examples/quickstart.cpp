// Quickstart: the paper's running example (Figures 2, 3 and 5) driven
// through the public API.
//
//   $ ./quickstart
//
// A source starts with the DTD  a:(b,c)  and receives documents shaped
// (b,c,b,c,d…)  and  (b,c,b,c,e).  The check phase notices the divergence
// and the evolution phase rebuilds the declaration to  ((b,c)*,(d+|e)),
// adding declarations for the new elements d and e.

#include <cstdio>

#include "core/source.h"
#include "dtd/dtd_writer.h"

int main() {
  using dtdevolve::core::SourceOptions;
  using dtdevolve::core::XmlSource;

  SourceOptions options;
  options.sigma = 0.3;                    // classification threshold σ
  options.tau = 0.2;                      // evolution trigger τ
  options.evolution.psi = 0.1;            // window threshold ψ
  options.evolution.min_support = 0.1;    // sequence support µ
  options.min_documents_before_check = 10;

  XmlSource source(options);
  dtdevolve::Status status = source.AddDtdText("paper", R"(
    <!ELEMENT a (b, c)>
    <!ELEMENT b (#PCDATA)>
    <!ELEMENT c (#PCDATA)>
  )");
  if (!status.ok()) {
    std::fprintf(stderr, "AddDtdText: %s\n", status.ToString().c_str());
    return 1;
  }

  std::printf("== initial DTD ==\n%s\n",
              dtdevolve::dtd::WriteDtd(*source.FindDtd("paper")).c_str());

  const char* d1 =
      "<a><b>1</b><c>2</c><b>3</b><c>4</c><d>5</d><d>6</d></a>";
  const char* d2 = "<a><b>1</b><c>2</c><b>3</b><c>4</c><e>7</e></a>";

  for (int i = 0; i < 10; ++i) {
    for (const char* text : {d1, d2}) {
      auto outcome = source.ProcessText(text);
      if (!outcome.ok()) {
        std::fprintf(stderr, "Process: %s\n",
                     outcome.status().ToString().c_str());
        return 1;
      }
      if (outcome->evolved) {
        std::printf("-- document %llu triggered an evolution --\n",
                    static_cast<unsigned long long>(
                        source.documents_processed()));
      }
    }
  }

  std::printf("\n== evolution log ==\n");
  for (const auto& event : source.EventsSince(0).events) {
    if (event.kind == dtdevolve::core::SourceEvent::Kind::kEvolved) {
      std::printf("%s", event.detail.c_str());
    }
  }

  std::printf("\n== evolved DTD ==\n%s\n",
              dtdevolve::dtd::WriteDtd(*source.FindDtd("paper")).c_str());
  std::printf("documents processed: %llu, classified: %llu, evolutions: %llu\n",
              static_cast<unsigned long long>(source.documents_processed()),
              static_cast<unsigned long long>(source.documents_classified()),
              static_cast<unsigned long long>(source.evolutions_performed()));
  return 0;
}
