// Reads the server's Prometheus text exposition (GET /metrics), so the
// counts and ratios of a measured window come from the program's own
// counters, diffed between a scrape before and one after the window.

#ifndef PERFBENCH_PROM_H_
#define PERFBENCH_PROM_H_

#include <map>
#include <string>
#include <string_view>

namespace perfbench {

class PromSnapshot {
 public:
  /// Parses `name{labels} value` sample lines; comments are skipped.
  static PromSnapshot Parse(std::string_view text);

  /// Sum of every series named exactly `name`, over all label sets
  /// (e.g. every tenant's shard).
  double Sum(const std::string& name) const;

 private:
  std::map<std::string, double> totals_;  // metric name → summed value
};

/// `after.Sum(name) - before.Sum(name)`.
inline double Delta(const PromSnapshot& before, const PromSnapshot& after,
                    const std::string& name) {
  return after.Sum(name) - before.Sum(name);
}

}  // namespace perfbench

#endif  // PERFBENCH_PROM_H_
