// perfbench: one process, one simulation thread.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --reference --workload NAME --seed N
//
// The first form runs the workload's inputs (sub-seeds derived from N) for
// a fixed number of rounds (about S seconds of work) and prints, as its last
// stdout line, one JSON object: correct / attempted / failed and the
// end-to-end metrics (--trace 0), or the per-layer metrics of traced trials
// paired with untraced ones (--trace 1). A human-readable table goes to
// stderr. The second form runs the packet-engine FCT reference for run seed
// N of a hybrid workload and prints one line of the pinned reference file
// (fct_reference.tsv).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/host_speed.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

// hybrid_test's accuracy gate on median and mean FCT.
constexpr double kMaxFctErrPct = 5.0;
constexpr const char* kReferenceFile = PERFBENCH_DIR "/fct_reference.tsv";

// Rounds in a run: every round runs each of the workload's inputs once. The
// count comes from --seconds and the workload's nominal trial time, never
// from the clock, so every count a run reports is a pure function of its
// arguments. `cost` is the number of trials one input takes per round (2 for
// a traced/untraced pair).
int Rounds(const Workload& w, double seconds, int cost) {
  const int n =
      static_cast<int>(seconds / (w.nominal_trial_s * w.inputs * cost));
  return std::max(n, 1);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double MedianOf(const std::vector<TrialOutcome>& trials,
                const std::function<double(const TrialOutcome&)>& f) {
  std::vector<double> v;
  v.reserve(trials.size());
  for (const TrialOutcome& o : trials) v.push_back(f(o));
  return Median(std::move(v));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct FctReference {
  double median_us = 0;
  double mean_us = 0;
};

// The packet-engine FCTs of a run's first input: looked up by run seed in
// the pinned reference file, else computed in-process.
FctReference Reference(const Workload& w, uint64_t seed) {
  std::ifstream in(kReferenceFile);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    uint64_t s = 0;
    FctReference r;
    if (fields >> name >> s >> r.median_us >> r.mean_us && name == w.name &&
        s == seed) {
      return r;
    }
  }
  const TrialOutcome ref = RunTrial(w, TrialSeed(seed, 0), /*traced=*/false,
                                    /*packet_reference=*/true);
  return {ref.sim.fct_median_us, ref.sim.fct_mean_us};
}

// FCT error of the run's first input against the packet engine, in percent
// (0 on the packet engine). Reported, not counted as a failed operation: the
// failures are the physics invariants and exact reproduction.
double FctErrPct(const Workload& w, uint64_t seed, const SimOutputs& s,
                 std::vector<std::string>* notes) {
  if (!w.hybrid) return 0;
  const FctReference ref = Reference(w, seed);
  std::fprintf(stderr,
               "fct median/mean us: %.3f / %.3f, packet-engine reference "
               "%.3f / %.3f\n",
               s.fct_median_us, s.fct_mean_us, ref.median_us, ref.mean_us);
  const double e_med =
      std::abs(s.fct_median_us - ref.median_us) / ref.median_us;
  const double e_mean = std::abs(s.fct_mean_us - ref.mean_us) / ref.mean_us;
  const double pct = 100.0 * std::max(e_med, e_mean);
  std::fprintf(stderr, "fct error against the packet engine: %.2f%%\n", pct);
  if (!(pct < kMaxFctErrPct)) {
    notes->push_back("FCT error against the packet engine >= 5%");
  }
  return pct;
}

// Accumulates checks over every trial of a run.
struct Checks {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> notes;

  // `expect`, when given, is an earlier trial at the same sub-seed whose
  // simulated outputs this one must reproduce exactly.
  void Trial(const SimOutputs& s, const char* what,
             const SimOutputs* expect = nullptr) {
    attempted += s.started + s.skipped;
    failed += s.failed;
    for (const std::string& v : s.violations) notes.push_back(v);
    if (expect != nullptr && !(s == *expect)) {
      failed += s.started;
      notes.push_back(std::string(what) +
                      " trial did not reproduce its sub-seed's outputs");
    }
  }
};

class Report {
 public:
  void Add(const char* name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }

  // Prints the table to stderr and the JSON object as the last stdout line.
  // A metric that is not finite makes the run incorrect.
  void Print(const Checks& checks) const {
    const bool finite =
        std::all_of(entries_.begin(), entries_.end(),
                    [](const Entry& e) { return std::isfinite(e.value); });
    for (const std::string& n : checks.notes) {
      std::fprintf(stderr, "check: %s\n", n.c_str());
    }
    for (const Entry& e : entries_) {
      std::fprintf(stderr, "%-28s %18.6f %s\n", e.name, e.value, e.unit);
    }
    const int64_t failed = std::min(checks.failed, checks.attempted);
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                failed == 0 && finite ? "true" : "false",
                static_cast<long long>(checks.attempted),
                static_cast<long long>(failed));
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", entries_[i].name, entries_[i].value,
                  entries_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Entry {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  int trace = 0;
  bool reference = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--reference") {
      a->reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (!(a->seconds > 0)) return false;
    } else if (flag == "--trace") {
      a->trace = static_cast<int>(std::strtol(v, &end, 10));
      if (a->trace != 0 && a->trace != 1) return false;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return FindWorkload(a->workload) != nullptr;
}

// Sum over timing segments of each segment's fastest time across `trials`,
// which are repeats of one input: the least disturbed time for that input's
// run.
double SumOfSegmentMins(const std::vector<TrialOutcome>& trials,
                        std::vector<double> TrialOutcome::*segments) {
  double sum = 0;
  for (size_t i = 0; i < (trials.front().*segments).size(); ++i) {
    double v = (trials.front().*segments)[i];
    for (const TrialOutcome& o : trials) {
      DCQCN_CHECK((o.*segments).size() == (trials.front().*segments).size());
      v = std::min(v, (o.*segments)[i]);
    }
    sum += v;
  }
  return sum;
}

int RunEndToEnd(const Workload& w, const Args& a) {
  const int rounds = Rounds(w, a.seconds, 1);
  // Warm-up at the first input: checked, not timed, and reproduced exactly
  // by every repeat of that input.
  const TrialOutcome warm = RunTrial(w, TrialSeed(a.seed, 0), false);
  Checks checks;
  checks.Trial(warm.sim, "warm-up");
  // Rounds outside, inputs inside, so the repeats of each input are spread
  // over the whole run. Every repeat must reproduce its input's outputs.
  // The reference work runs before every trial; its fastest pass measures
  // the host's speed during the run.
  std::vector<std::vector<TrialOutcome>> by_input(
      static_cast<size_t>(w.inputs));
  double ref_s = ReferenceWorkSeconds();
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < w.inputs; ++i) {
      std::vector<TrialOutcome>& repeats = by_input[static_cast<size_t>(i)];
      ref_s = std::min(ref_s, ReferenceWorkSeconds());
      TrialOutcome o = RunTrial(w, TrialSeed(a.seed, i), false);
      const SimOutputs* expect = !repeats.empty() ? &repeats.front().sim
                                 : i == 0         ? &warm.sim
                                                  : nullptr;
      checks.Trial(o.sim, "timed", expect);
      repeats.push_back(std::move(o));
    }
  }
  // Before the FCT reference, which may run the packet engine in-process.
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  FctErrPct(w, a.seed, warm.sim, &checks.notes);
  std::fprintf(stderr, "%s seed %llu: %d inputs x %d rounds\n",
               w.name.c_str(), static_cast<unsigned long long>(a.seed),
               w.inputs, rounds);

  // Host times: per input, the sum over timing segments of each segment's
  // fastest repeat, summed over inputs; set-up, the median over inputs of
  // each input's fastest set-up. On a shared host the speed of identical
  // work swings by up to 2x for seconds at a time; the fastest repeat of a
  // short interval is the least disturbed measurement. All three are then
  // scaled to the reference host speed (host_speed.h). Simulated outputs:
  // totals over inputs (events, goodput) or the median input.
  double run_s = 0, cpu_s = 0, delivered = 0;
  uint64_t events = 0;
  std::vector<double> setup, slowdown;
  for (const std::vector<TrialOutcome>& repeats : by_input) {
    double setup_s = repeats.front().setup_s;
    double setup_cpu_s = repeats.front().setup_cpu_s;
    for (const TrialOutcome& o : repeats) {
      setup_s = std::min(setup_s, o.setup_s);
      setup_cpu_s = std::min(setup_cpu_s, o.setup_cpu_s);
    }
    setup.push_back(setup_s);
    run_s += SumOfSegmentMins(repeats, &TrialOutcome::run_segment_s);
    cpu_s += setup_cpu_s +
             SumOfSegmentMins(repeats, &TrialOutcome::cpu_segment_s);
    const SimOutputs& sim = repeats.front().sim;
    events += sim.events;
    delivered += static_cast<double>(sim.delivered_bytes);
    slowdown.push_back(sim.slowdown_p95);
  }
  const double scale = kReferenceWorkS / ref_s;
  std::fprintf(stderr,
               "measured: setup_s %.6f run_s %.6f cpu_s %.6f; reference "
               "work %.6f s, scale %.4f\n",
               Median(setup), run_s, cpu_s, ref_s, scale);
  Report r;
  r.Add("setup_s", scale * Median(setup), "s");
  r.Add("run_s", scale * run_s, "s");
  r.Add("cpu_s", scale * cpu_s, "s");
  r.Add("events", static_cast<double>(events), "count");
  r.Add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  r.Add("goodput_gbps",
        delivered * 8 / (w.inputs * dcqcn::ToSeconds(w.duration)) / 1e9,
        "Gbps");
  r.Add("fct_p95_slowdown", Median(slowdown), "ratio");
  r.Print(checks);
  return 0;
}

int RunTraced(const Workload& w, const Args& a) {
  const int rounds = Rounds(w, a.seconds, 2);
  const TrialOutcome warm = RunTrial(w, TrialSeed(a.seed, 0), false);
  Checks checks;
  checks.Trial(warm.sim, "warm-up");
  // Each input runs traced and untraced once per round, each going first in
  // every other pair, so the overhead ratio compares trials from the same
  // time window. The traced trial must reproduce the untraced one exactly.
  // Every later untraced repeat of an input must reproduce its first one.
  std::vector<TrialOutcome> traced, untraced;
  std::vector<SimOutputs> first(static_cast<size_t>(w.inputs));
  first[0] = warm.sim;
  std::vector<double> overhead;
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < w.inputs; ++i) {
      const uint64_t seed = TrialSeed(a.seed, i);
      const bool traced_first = (r * w.inputs + i) % 2 == 0;
      if (traced_first) traced.push_back(RunTrial(w, seed, true));
      untraced.push_back(RunTrial(w, seed, false));
      if (!traced_first) traced.push_back(RunTrial(w, seed, true));
      SimOutputs& expect = first[static_cast<size_t>(i)];
      if (r == 0 && i > 0) expect = untraced.back().sim;
      checks.Trial(untraced.back().sim, "untraced", &expect);
      checks.Trial(traced.back().sim, "traced", &untraced.back().sim);
      overhead.push_back(traced.back().run_s / untraced.back().run_s - 1.0);
    }
  }
  const double fct_err = FctErrPct(w, a.seed, warm.sim, &checks.notes);

  // The span aggregates of the first traced trial, for reading by eye.
  std::fprintf(stderr, "%-18s %12s %12s %12s\n", "span", "total_ms",
               "self_ms", "calls");
  for (size_t i = 0; i < kLayerNames.size(); ++i) {
    const LayerTotals& t = traced.front().trace.layers[i];
    std::fprintf(stderr, "%-18s %12.3f %12.3f %12lld\n", kLayerNames[i],
                 1e-6 * static_cast<double>(t.total_ns),
                 1e-6 * static_cast<double>(t.self_ns),
                 static_cast<long long>(t.calls));
  }

  // Counts and simulated outputs: medians over the untraced trials (the
  // traced ones are identical). Times: medians over the traced trials.
  const auto sim =
      [&untraced](const std::function<double(const SimOutputs&)>& f) {
        return MedianOf(untraced,
                        [&f](const TrialOutcome& o) { return f(o.sim); });
      };
  const auto count = [&sim](int64_t SimOutputs::*field) {
    return sim([field](const SimOutputs& s) {
      return static_cast<double>(s.*field);
    });
  };
  const auto layer = [&traced](Layer l, int64_t LayerTotals::*field) {
    return MedianOf(traced, [l, field](const TrialOutcome& o) {
      return static_cast<double>(o.trace.layers[static_cast<size_t>(l)].*field);
    });
  };
  const auto cc = [&traced](int64_t CcCounts::*field) {
    return MedianOf(traced, [field](const TrialOutcome& o) {
      return static_cast<double>(o.trace.cc.*field);
    });
  };
  // Per-event and per-packet costs divide the untraced run time.
  const auto per_untraced_run =
      [&untraced](const std::function<double(const SimOutputs&)>& count_of) {
        return MedianOf(untraced, [&count_of](const TrialOutcome& o) {
          return Ratio(o.run_s * 1e9, count_of(o.sim));
        });
      };
  const double cc_ns_per_call = MedianOf(traced, [](const TrialOutcome& o) {
    return Ratio(static_cast<double>(
                     o.trace.layers[static_cast<size_t>(Layer::kCc)].self_ns),
                 static_cast<double>(o.trace.cc.total()));
  });
  // The greedy mix starts its flows without the workload layer.
  const bool pattern = w.load_fraction > 0;

  Report r;
  r.Add("sim.events", sim([](const SimOutputs& s) {
          return static_cast<double>(s.events);
        }), "count");
  r.Add("sim.ns_per_event", per_untraced_run([](const SimOutputs& s) {
          return static_cast<double>(s.events);
        }), "ns");
  r.Add("sim.pending_peak", count(&SimOutputs::pending_peak), "count");
  r.Add("net.build_s", 1e-9 * layer(Layer::kNetBuild, &LayerTotals::total_ns),
        "s");
  r.Add("net.start_flow_s",
        1e-9 * layer(Layer::kNetStartFlow, &LayerTotals::total_ns), "s");
  r.Add("net.start_flow_calls",
        layer(Layer::kNetStartFlow, &LayerTotals::calls), "count");
  r.Add("net.switch_tx_packets", count(&SimOutputs::switch_tx_packets),
        "count");
  r.Add("net.ns_per_switch_packet", per_untraced_run([](const SimOutputs& s) {
          return static_cast<double>(s.switch_tx_packets);
        }), "ns");
  r.Add("net.ecn_marked", count(&SimOutputs::ecn_marked), "count");
  r.Add("net.pause_frames", count(&SimOutputs::pause_frames), "count");
  r.Add("net.paused_time_ms", 1e-9 * count(&SimOutputs::paused_time_ps), "ms");
  r.Add("net.drops", count(&SimOutputs::drops), "count");
  r.Add("nic.data_packets", count(&SimOutputs::data_packets), "count");
  r.Add("nic.acks", count(&SimOutputs::acks), "count");
  r.Add("nic.cnps", count(&SimOutputs::cnps), "count");
  r.Add("nic.naks", count(&SimOutputs::naks), "count");
  r.Add("nic.out_of_order", count(&SimOutputs::out_of_order), "count");
  r.Add("nic.useful_ratio", sim([](const SimOutputs& s) {
          return Ratio(static_cast<double>(s.data_packets_received -
                                           s.out_of_order),
                       static_cast<double>(s.data_packets));
        }), "ratio");
  r.Add("cc.on_cnp", cc(&CcCounts::on_cnp), "count");
  r.Add("cc.on_ack", cc(&CcCounts::on_ack), "count");
  r.Add("cc.on_timer", cc(&CcCounts::on_timer), "count");
  r.Add("cc.on_bytes_sent", cc(&CcCounts::on_bytes_sent), "count");
  r.Add("cc.self_s", 1e-9 * layer(Layer::kCc, &LayerTotals::self_ns), "s");
  r.Add("cc.ns_per_call", cc_ns_per_call, "ns");
  r.Add("workload.started", pattern ? count(&SimOutputs::started) : 0,
        "count");
  r.Add("workload.completed", pattern ? count(&SimOutputs::completed) : 0,
        "count");
  r.Add("workload.in_flight", pattern ? count(&SimOutputs::in_flight) : 0,
        "count");
  r.Add("workload.fct_p99_slowdown",
        sim([](const SimOutputs& s) { return s.slowdown_p99; }), "ratio");
  r.Add("workload.launch_s",
        1e-9 * layer(Layer::kWorkloadLaunch, &LayerTotals::self_ns), "s");
  r.Add("workload.callback_s",
        1e-9 * layer(Layer::kWorkloadCallback, &LayerTotals::self_ns), "s");
  r.Add("hybrid.run_s",
        1e-9 * layer(Layer::kHybridRun, &LayerTotals::total_ns), "s");
  r.Add("hybrid.probes", count(&SimOutputs::probes), "count");
  r.Add("hybrid.entry_rejects", count(&SimOutputs::entry_rejects), "count");
  r.Add("hybrid.epochs", count(&SimOutputs::epochs), "count");
  r.Add("hybrid.exits_infeasible", count(&SimOutputs::exits_infeasible),
        "count");
  r.Add("hybrid.ff_completions", count(&SimOutputs::ff_completions), "count");
  r.Add("hybrid.ff_packets", count(&SimOutputs::ff_packets), "count");
  r.Add("hybrid.ff_time_share", sim([&w](const SimOutputs& s) {
          return Ratio(static_cast<double>(s.ff_time_ps),
                       static_cast<double>(w.duration));
        }), "ratio");
  r.Add("hybrid.admit_ratio", sim([](const SimOutputs& s) {
          return Ratio(static_cast<double>(s.epochs),
                       static_cast<double>(s.probes));
        }), "ratio");
  r.Add("hybrid.elided_share", sim([](const SimOutputs& s) {
          return Ratio(static_cast<double>(s.ff_packets),
                       static_cast<double>(s.ff_packets + s.data_packets));
        }), "ratio");
  r.Add("hybrid.fct_err_pct", fct_err, "%");
  r.Add("runner.overhead_s", MedianOf(untraced, [](const TrialOutcome& o) {
          return o.runner_overhead_s;
        }), "s");
  r.Add("trace.overhead_pct", 100.0 * Median(overhead), "%");
  r.Print(checks);
  return 0;
}

int RunReference(const Workload& w, const Args& a) {
  if (!w.hybrid) {
    std::fprintf(stderr, "%s runs on the packet engine; it has no reference\n",
                 w.name.c_str());
    return 2;
  }
  const TrialOutcome ref = RunTrial(w, TrialSeed(a.seed, 0), false, true);
  std::printf("%s %llu %.17g %.17g\n", w.name.c_str(),
              static_cast<unsigned long long>(a.seed), ref.sim.fct_median_us,
              ref.sim.fct_mean_us);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n"
                 "       perfbench --reference --workload NAME --seed N\n"
                 "workloads:");
    for (const perfbench::Workload& w : perfbench::Workloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const perfbench::Workload& w = *perfbench::FindWorkload(a.workload);
  if (a.reference) return perfbench::RunReference(w, a);
  return a.trace == 1 ? perfbench::RunTraced(w, a)
                      : perfbench::RunEndToEnd(w, a);
}
