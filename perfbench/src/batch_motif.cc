// batch_motif: parse-and-answer queries, one at a time (see params.h).

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/distance_matrix.h"
#include "core/options.h"
#include "data/io.h"
#include "geo/metric.h"
#include "motif/gtm.h"
#include "motif/motif.h"
#include "params.h"
#include "similarity/frechet.h"
#include "workloads.h"

namespace fmbench {
namespace {

namespace fm = frechet_motif;

struct Answer {
  fm::MotifResult result;
  fm::Index n = 0;
};

bool SameAnswer(const fm::MotifResult& a, const fm::MotifResult& b) {
  return a.found == b.found && a.best == b.best &&
         std::memcmp(&a.distance, &b.distance, sizeof(double)) == 0;
}

fm::Trajectory Slice(const fm::Trajectory& t, fm::Index from, fm::Index to) {
  std::vector<fm::Point> points(t.points().begin() + from,
                                t.points().begin() + to + 1);
  return fm::Trajectory(std::move(points));
}

fm::FindMotifOptions QueryOptions(int threads) {
  fm::FindMotifOptions options;  // GTM, xi = 100, tau = 32, eps = 0
  options.threads = threads;
  return options;
}

/// Off-clock checks of one answer: a valid candidate whose DFD,
/// recomputed from the parsed trajectory, is bit-equal to the reported
/// distance and to the single-threaded answer.
void CheckAnswer(const std::string& name, const std::string& csv,
                 const Answer& got, int threads, RunResult* out) {
  const fm::Trajectory t = std::move(fm::ReadCsvFromString(csv)).value();
  const fm::MotifResult& r = got.result;
  fm::MotifOptions mo;
  mo.min_length_xi = QueryOptions(1).min_length_xi;
  if (!r.found || !fm::IsValidCandidate(r.best, mo, t.size(), t.size())) {
    out->Fail(name + ": no valid candidate");
    return;
  }
  const fm::Trajectory a = Slice(t, r.best.i, r.best.ie);
  const fm::Trajectory b = Slice(t, r.best.j, r.best.je);
  const double dfd =
      std::move(fm::DiscreteFrechet(a, b, fm::Haversine())).value();
  if (std::memcmp(&dfd, &r.distance, sizeof(double)) != 0) {
    out->Fail(name + ": reported distance differs from recomputed DFD");
  }
  if (threads != 1) {
    const fm::MotifResult serial =
        std::move(fm::FindMotif(t, fm::Haversine(), QueryOptions(1))).value();
    if (!SameAnswer(serial, r)) {
      out->Fail(name + ": answer differs from the threads=1 answer");
    }
  }
}

struct LayerTotals {
  double precompute = 0.0;
  double search = 0.0;
  std::int64_t subsets_evaluated = 0;
  std::int64_t total_subsets = 0;
  std::int64_t group_pairs_total = 0;
  std::int64_t group_pairs_pruned = 0;
  std::int64_t gub_tightenings = 0;
  std::int64_t bsf_updates = 0;
  std::int64_t dfd_cells = 0;
  std::int64_t ground_distances = 0;
  std::size_t peak_bytes = 0;
};

/// One round: every query parsed and answered once. Returns the per-query
/// wall times; `answers` receives the results. With a tracer the query
/// is split into its layer calls (Build, then GTM on the provider).
std::vector<double> RunRound(const BatchInputs& in, int threads,
                             Tracer* tracer, std::int64_t* next_trace,
                             LayerTotals* layers, std::vector<Answer>* answers) {
  std::vector<double> times;
  answers->clear();
  for (std::size_t q = 0; q < in.csv.size(); ++q) {
    const double t0 = NowSeconds();
    Answer answer;
    if (tracer == nullptr) {
      fm::StatusOr<fm::Trajectory> t = fm::ReadCsvFromString(in.csv[q]);
      fm::StatusOr<fm::MotifResult> r =
          t.ok() ? fm::FindMotif(t.value(), fm::Haversine(), QueryOptions(threads))
                 : fm::StatusOr<fm::MotifResult>(t.status());
      if (r.ok()) answer.result = r.value();
      answer.n = t.ok() ? t.value().size() : 0;
    } else {
      const std::int64_t trace = (*next_trace)++;
      ScopedSpan query(*tracer, "batch.query", -1, trace);
      fm::StatusOr<fm::Trajectory> t = fm::Trajectory(std::vector<fm::Point>{});
      {
        ScopedSpan s(*tracer, "data.read_csv", query.id(), trace);
        t = fm::ReadCsvFromString(in.csv[q]);
      }
      if (t.ok()) {
        answer.n = t.value().size();
        fm::StatusOr<fm::DistanceMatrix> m =
            fm::Status::InvalidArgument("unbuilt");
        {
          ScopedSpan s(*tracer, "core.matrix_build", query.id(), trace);
          m = fm::DistanceMatrix::Build(t.value(), fm::Haversine());
        }
        if (m.ok()) {
          fm::GtmOptions g;
          const fm::FindMotifOptions f = QueryOptions(threads);
          g.motif.min_length_xi = f.min_length_xi;
          g.motif.threads = f.threads;
          g.group_size_tau = f.group_size_tau;
          g.approximation_epsilon = f.approximation_epsilon;
          fm::MotifStats stats;
          fm::StatusOr<fm::MotifResult> r = fm::Status::InvalidArgument("");
          {
            ScopedSpan s(*tracer, "motif.gtm", query.id(), trace);
            r = fm::GtmMotif(m.value(), g, &stats);
          }
          if (r.ok()) answer.result = r.value();
          layers->precompute += stats.precompute_seconds;
          layers->search += stats.search_seconds;
          layers->subsets_evaluated += stats.subsets_evaluated;
          layers->total_subsets += stats.total_subsets;
          layers->group_pairs_total += stats.group_pairs_total;
          layers->group_pairs_pruned += stats.group_pairs_pruned_pattern +
                                        stats.group_pairs_pruned_dfd_bound;
          layers->gub_tightenings += stats.gub_tightenings;
          layers->bsf_updates += stats.bsf_updates;
          layers->dfd_cells += stats.dfd_cells_computed;
          layers->ground_distances +=
              static_cast<std::int64_t>(answer.n) * answer.n;
          layers->peak_bytes =
              std::max(layers->peak_bytes, stats.memory.peak_bytes());
        }
      }
    }
    times.push_back(NowSeconds() - t0);
    answers->push_back(answer);
  }
  return times;
}

struct RoundStats {
  std::vector<double> round_s;
  std::vector<double> slowest_s;
};

void AddRound(const std::vector<double>& times, RoundStats* rs) {
  double total = 0.0;
  for (double t : times) total += t;
  rs->round_s.push_back(total);
  rs->slowest_s.push_back(*std::max_element(times.begin(), times.end()));
}

}  // namespace

RunResult RunBatchMotif(const RunConfig& config) {
  RunResult out;
  const int threads = LibraryThreads(kBatchThreads);

  BatchInputs inputs;
  const double setup_s = MedianSetupSeconds(kBatchSetupReps, [&] {
    const double t0 = NowSeconds();
    inputs = MakeBatchInputs(config.seed);
    return NowSeconds() - t0;
  });

  // Timed rounds until --seconds have passed. The traced run alternates
  // untraced rounds (the reference for overhead and attribution) with
  // traced ones, so both see the same host conditions.
  std::vector<std::vector<Answer>> all_answers;
  std::vector<Answer> answers;
  Tracer tracer(config.trace);
  LayerTotals layers;
  RoundStats plain;
  RoundStats traced;
  std::int64_t next_trace = 1;
  const auto min_rounds = static_cast<std::size_t>(kBatchMinRounds);
  const double start = NowSeconds();
  while (plain.round_s.size() < min_rounds ||
         (config.trace && traced.round_s.size() < min_rounds) ||
         NowSeconds() - start < config.seconds) {
    AddRound(RunRound(inputs, threads, nullptr, nullptr, nullptr, &answers),
             &plain);
    all_answers.push_back(answers);
    if (config.trace) {
      AddRound(RunRound(inputs, threads, &tracer, &next_trace, &layers, &answers),
               &traced);
      all_answers.push_back(answers);
    }
  }
  const double peak_rss = PeakRssMb();

  // Oracles, off the clock: the first round's answers are checked in
  // full; every other round must reproduce them bit for bit.
  for (std::size_t q = 0; q < inputs.csv.size(); ++q) {
    CheckAnswer(inputs.names[q], inputs.csv[q], all_answers[0][q], threads, &out);
  }
  for (std::size_t r = 1; r < all_answers.size(); ++r) {
    for (std::size_t q = 0; q < inputs.csv.size(); ++q) {
      if (!SameAnswer(all_answers[r][q].result, all_answers[0][q].result)) {
        out.Fail(inputs.names[q] + ": round " + std::to_string(r) +
                 " answer differs from round 0");
      }
    }
  }
  out.attempted = static_cast<std::int64_t>(all_answers.size() * inputs.csv.size());

  const double round_p50 = Median(plain.round_s);
  const double slowest_p50 = Median(plain.slowest_s);
  const double points = static_cast<double>(kBatchLength) *
                        static_cast<double>(inputs.csv.size());
  out.values["setup_s"] = setup_s;
  out.values["throughput_per_s"] = points / round_p50;
  out.values["peak_rss_mb"] = peak_rss;

  const auto rounds = static_cast<std::int64_t>(plain.round_s.size());
  out.figures = {
      {"setup_s", setup_s, "s", kBatchSetupReps},
      {"batch_motif_s", round_p50, "s", rounds},
      {"slowest_query_s", slowest_p50, "s", rounds},
      {"answered_points_per_s", points / round_p50, "points/s", rounds},
      {"threads", static_cast<double>(threads), "count", 0},
      {"peak_rss_mb", peak_rss, "MB", 0},
  };

  if (config.trace) {
    const double n_rounds = static_cast<double>(traced.round_s.size());
    const std::map<std::string, double> self = SelfTimeByName(tracer.spans());
    auto per_round = [&](double total) { return total / n_rounds; };
    auto& v = out.values;
    v["data.read_csv_s"] = per_round(self.count("data.read_csv") ? self.at("data.read_csv") : 0.0);
    v["core.matrix_build_s"] =
        per_round(self.count("core.matrix_build") ? self.at("core.matrix_build") : 0.0);
    v["core.ground_distances"] = per_round(static_cast<double>(layers.ground_distances));
    v["motif.precompute_s"] = per_round(layers.precompute);
    v["motif.search_s"] = per_round(layers.search);
    v["motif.subsets_evaluated"] = per_round(static_cast<double>(layers.subsets_evaluated));
    v["motif.evaluated_share"] =
        layers.total_subsets > 0 ? static_cast<double>(layers.subsets_evaluated) /
                                       static_cast<double>(layers.total_subsets)
                                 : 0.0;
    v["motif.group_pairs_total"] = per_round(static_cast<double>(layers.group_pairs_total));
    v["motif.group_pairs_pruned_share"] =
        layers.group_pairs_total > 0
            ? static_cast<double>(layers.group_pairs_pruned) /
                  static_cast<double>(layers.group_pairs_total)
            : 0.0;
    v["motif.gub_tightenings"] = per_round(static_cast<double>(layers.gub_tightenings));
    v["motif.bsf_updates"] = per_round(static_cast<double>(layers.bsf_updates));
    v["motif.peak_bytes"] = static_cast<double>(layers.peak_bytes);
    v["similarity.dfd_cells"] = per_round(static_cast<double>(layers.dfd_cells));
    v["similarity.cells_per_s"] =
        layers.search > 0 ? static_cast<double>(layers.dfd_cells) / layers.search : 0.0;
    const double traced_p50 = Median(traced.round_s);
    v["trace.overhead_share"] = traced_p50 / round_p50 - 1.0;
    const double attributed = v["data.read_csv_s"] + v["core.matrix_build_s"] +
                              v["motif.precompute_s"] + v["motif.search_s"];
    v["trace.unattributed_share"] = (round_p50 - attributed) / round_p50;
    tracer.WriteJsonl(config.work_dir + "/batch_motif-seed" +
                      std::to_string(config.seed) + ".spans.jsonl");
  }
  return out;
}

}  // namespace fmbench
