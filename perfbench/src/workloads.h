#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its span buffer (CSV).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `correct` is false when any correctness gate
/// failed; `errors` then says which.
struct RunOutput {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  std::vector<std::string> notes;  ///< human-readable lines for stdout

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& error) {
    correct = false;
    errors.push_back(error);
  }
};

/// serve_look / serve_book.
void RunServeWorkload(const RunArgs& args, RunOutput* out);
/// city_sim.
void RunCitySimWorkload(const RunArgs& args, RunOutput* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
