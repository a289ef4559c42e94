// fmbench: runs one workload of the frechet_motif benchmark and prints
// its figures, the host/build stamp and, as the last line, one JSON
// result object. perfbench/run.py builds this binary and forwards its
// arguments; see README.md.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

constexpr const char* kUsage =
    "usage: fmbench --workload <batch_motif|fleet_replay|serve_live>\n"
    "               [--seed N] [--seconds S] [--trace 0|1]\n"
    "               [--work-dir DIR] [--git DESCRIBE]\n"
    "       fmbench --list-metrics\n"
    "\n"
    "Runs one workload for about S seconds of measurement (default 10)\n"
    "on inputs generated from seed N (default 1), checks every answer,\n"
    "and prints the end-to-end metrics (--trace 0) or the per-layer\n"
    "metrics of a traced run (--trace 1). The last stdout line is the\n"
    "JSON result. Exit codes: 0 ok, 1 oracle mismatch, 2 usage,\n"
    "3 invalid run (the open-loop generator fell behind schedule).\n"
    "--list-metrics prints the metric tables as JSON and exits.\n";

void PrintSpecs(const char* key, const std::vector<fmbench::MetricSpec>& specs,
                bool last) {
  std::printf("  \"%s\": [", key);
  for (std::size_t k = 0; k < specs.size(); ++k) {
    std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}",
                k == 0 ? "" : ", ", specs[k].name, specs[k].unit, specs[k].better);
  }
  std::printf("]%s\n", last ? "" : ",");
}

bool ParseArgs(int argc, char** argv, fmbench::RunConfig* config,
               std::string* git) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    }
    if (arg == "--list-metrics") {
      std::printf("{\n");
      PrintSpecs("end_to_end", fmbench::EndToEndSpecs(), false);
      PrintSpecs("per_layer", fmbench::PerLayerSpecs(), true);
      std::printf("}\n");
      std::exit(0);
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config->workload = value;
    } else if (arg == "--seed") {
      config->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      config->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config->seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      config->trace = value == "1";
    } else if (arg == "--work-dir") {
      config->work_dir = value;
    } else if (arg == "--git") {
      *git = value;
    } else {
      return false;
    }
  }
  return !config->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  fmbench::RunConfig config;
  config.work_dir = ".";
  std::string git = "unknown";
  if (!ParseArgs(argc, argv, &config, &git)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  mkdir(config.work_dir.c_str(), 0755);

  fmbench::RunResult result;
  if (config.workload == "batch_motif") {
    result = fmbench::RunBatchMotif(config);
  } else if (config.workload == "fleet_replay") {
    result = fmbench::RunFleetReplay(config);
  } else if (config.workload == "serve_live") {
    result = fmbench::RunServeLive(config);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n%s", config.workload.c_str(),
                 kUsage);
    return 2;
  }

  for (const std::string& m : result.mismatches) {
    std::fprintf(stderr, "oracle mismatch: %s\n", m.c_str());
  }
  if (!result.invalid_reason.empty()) {
    std::fprintf(stderr, "invalid run, not reported: %s\n",
                 result.invalid_reason.c_str());
    return 3;
  }

  std::printf("workload %s seed %llu trace %d\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? 1 : 0);
  for (const fmbench::Metric& m : result.figures) {
    if (m.samples > 0) {
      std::printf("  %-24s %14.6g %-9s (n=%lld)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<long long>(m.samples));
    } else {
      std::printf("  %-24s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  const double error_rate =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 0.0;
  std::printf("  %-24s %14.6g ratio     (n=%lld)\n", "error_rate", error_rate,
              static_cast<long long>(result.attempted));
  std::printf("host %s\n", fmbench::HostStampJson(git).c_str());

  const auto& specs =
      config.trace ? fmbench::PerLayerSpecs() : fmbench::EndToEndSpecs();
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const fmbench::MetricSpec& s : specs) {
    auto it = result.values.find(s.name);
    const double v = it == result.values.end() ? 0.0 : it->second;
    if (!first) line += ", ";
    first = false;
    line += "\"" + std::string(s.name) + "\": {\"value\": " +
            fmbench::JsonNumber(v) + ", \"unit\": \"" + s.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
