#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/numeric.h"

namespace frechet_motif {
namespace bench {

constexpr char kUsage[] =
    "usage: %s [flags]  (flags a benchmark does not use are ignored)\n"
    "  --full            paper-scale run (repeats 10, tau 32)\n"
    "  --smoke           CI-sized sanity run\n"
    "  --repeats=N       repetitions per point\n"
    "  --seed=N          dataset seed (default 42)\n"
    "  --lengths=A,B,..  trajectory lengths to sweep\n"
    "  --xis=A,B,..      minimum motif lengths to sweep\n"
    "  --xi=N            minimum motif length\n"
    "  --n=N             trajectory length of the xi sweeps\n"
    "  --tau=N           group size\n"
    "  --threads=N       worker threads, 0 = all cores (default 1)\n"
    "  --json[=PATH]     also write JSON results (bare: BENCH_kernels.json)\n"
    "  --help            print this message and exit\n";

BenchConfig ParseBenchConfig(int argc, char** argv,
                             const std::vector<std::int64_t>& default_lengths,
                             const std::vector<std::int64_t>& default_xis,
                             std::int64_t default_xi, std::int64_t default_n) {
  Flags flags;
  const Status s = flags.Parse(argc, argv);
  if (!s.ok()) {
    std::fprintf(stderr, "flag error: %s\n", s.ToString().c_str());
    std::exit(2);
  }
  if (flags.Has("help")) {
    std::printf(kUsage, argc > 0 ? argv[0] : "bench");
    std::exit(0);
  }
  BenchConfig config;
  config.full = flags.GetBool("full", false);
  config.repeats = flags.GetInt("repeats", config.full ? 10 : 1);
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  config.lengths = flags.GetIntList("lengths", default_lengths);
  config.xis = flags.GetIntList("xis", default_xis);
  config.xi = flags.GetInt("xi", default_xi);
  config.n = flags.GetInt("n", default_n);
  // Keep the paper's xi/tau ratio (~3): tau=32 belongs with xi=100.
  config.tau = flags.GetInt("tau", config.full ? 32 : 8);
  config.smoke = flags.GetBool("smoke", false);
  config.threads = flags.GetInt("threads", 1);
  if (config.threads < 0) {
    std::fprintf(stderr, "flag error: --threads must be >= 0\n");
    std::exit(2);
  }
  if (flags.Has("json")) {
    const std::string v = flags.GetString("json", "");
    // Bare `--json` parses as the boolean "true"; treat it as the default
    // output path.
    config.json_path = (v.empty() || v == "true") ? "BENCH_kernels.json" : v;
  }
  return config;
}

Trajectory MakeBenchTrajectory(DatasetKind kind, Index length,
                               const BenchConfig& config,
                               std::int64_t repeat) {
  DatasetOptions options;
  options.length = length;
  options.seed = config.seed + 1000003ULL * static_cast<std::uint64_t>(repeat);
  StatusOr<Trajectory> t = MakeDataset(kind, options);
  if (!t.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 t.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(t).value();
}

std::string GitDescribe() {
  // The bench binaries run from (a subdirectory of) the repository, so a
  // plain `git describe` resolves by walking up from the working directory.
  FILE* pipe = popen("git describe --always --dirty 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[128];
  std::string out;
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

namespace {

/// Escapes the characters JSON string literals cannot contain raw. The
/// values written here (kernel names, git describe) are ASCII, so quotes,
/// backslashes and control characters are the full set.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

bool WriteKernelJson(const std::string& path, const std::string& bench_name,
                     const BenchConfig& config,
                     const std::vector<KernelResult>& results) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"%s\",\n", JsonEscape(bench_name).c_str());
  std::fprintf(f, "  \"git\": \"%s\",\n", JsonEscape(GitDescribe()).c_str());
  std::fprintf(f, "  \"smoke\": %s,\n", config.smoke ? "true" : "false");
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(config.seed));
  std::fprintf(f, "  \"kernels\": [\n");
  for (std::size_t k = 0; k < results.size(); ++k) {
    const KernelResult& r = results[k];
    std::string extras;
    for (const auto& [key, value] : r.extras) {
      extras += ", \"" + JsonEscape(key) +
                "\": " + DoubleToStringGeneral(value, 10);
    }
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"n\": %lld, \"threads\": %lld, "
                 "\"ns_per_op\": %s, \"iterations\": %lld%s}%s\n",
                 JsonEscape(r.name).c_str(), static_cast<long long>(r.n),
                 static_cast<long long>(r.threads),
                 DoubleToStringFixed(r.ns_per_op, 3).c_str(),
                 static_cast<long long>(r.iterations), extras.c_str(),
                 k + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu kernels)\n", path.c_str(), results.size());
  return true;
}

void PrintHeader(const std::string& figure, const std::string& description,
                 const BenchConfig& config) {
  std::printf("=== %s: %s ===\n", figure.c_str(), description.c_str());
  std::printf("mode=%s repeats=%lld seed=%llu\n\n",
              config.full ? "full (paper-scale)" : "default (laptop-scale)",
              static_cast<long long>(config.repeats),
              static_cast<unsigned long long>(config.seed));
}

}  // namespace bench
}  // namespace frechet_motif
