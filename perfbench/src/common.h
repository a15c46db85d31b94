// Small shared helpers of the pipeline benchmark: clocks, order
// statistics, a minimal JSON reader for server responses, and the
// metric line the benchmark prints.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock since an arbitrary fixed origin.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nanoseconds on the monotonic clock.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Quantile `q` in [0, 1] of `values` by linear interpolation between
/// order statistics; 0 for an empty input. Sorts a copy.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// `numerator / denominator`, or 0 when the denominator is 0.
inline double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

/// A parsed JSON value. Only what the server's responses need: objects,
/// arrays, strings, numbers, booleans and null.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  /// Field `key` of an object, or a null value when absent.
  const Json& operator[](const std::string& key) const;
};

/// Parses `text` as one JSON value; false on malformed input.
bool ParseJson(std::string_view text, Json* out);

/// One reported metric: name, value and unit, in output order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Formats a double with all its significant digits for the result line.
std::string FormatNumber(double value);

/// JSON string literal with escaping.
std::string JsonString(std::string_view text);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
