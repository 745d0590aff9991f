// Command-line entry of the CityMesh benchmark: runs one workload for a time
// window and prints one JSON report line (workloads.hpp). perfbench/run.py
// builds this binary, runs it once per workload in a fresh process and checks
// its digest.
//
//   perfbench --workload hotspot|metro|qfgeo|paper-eval --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

int usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload hotspot|metro|qfgeo|paper-eval --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n";
  return 2;
}

bool parse_uint(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) return false;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return usage("missing value after " + std::string{arg});
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      const auto w = perfbench::workload_from(value);
      if (!w) return usage("unknown workload '" + value + "'");
      options.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!parse_uint(value, n)) return usage("bad --seed '" + value + "'");
      options.seed = n;
    } else if (arg == "--seconds") {
      if (!parse_uint(value, n) || n == 0 || n > 3600) {
        return usage("bad --seconds '" + value + "'");
      }
      options.seconds = static_cast<double>(n);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage("unknown argument '" + std::string{arg} + "'");
    }
  }
  if (!have_workload) return usage("--workload is required");
  try {
    perfbench::write_report(std::cout, perfbench::run(options));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
