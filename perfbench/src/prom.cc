#include "prom.h"

#include <cstdlib>
#include <string>

namespace perfbench {

PromSnapshot PromSnapshot::Parse(std::string_view text) {
  PromSnapshot snapshot;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string_view::npos) continue;
    const size_t value_start = line.rfind(' ');
    if (value_start == std::string_view::npos || value_start < name_end) {
      continue;
    }
    const std::string value(line.substr(value_start + 1));
    snapshot.totals_[std::string(line.substr(0, name_end))] +=
        std::strtod(value.c_str(), nullptr);
  }
  return snapshot;
}

double PromSnapshot::Sum(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second;
}

}  // namespace perfbench
