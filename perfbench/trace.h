// Span recorder for the traced benchmark run.
//
// Spans are recorded only around calls the benchmark itself makes into a
// layer's public functions (or that a layer makes into a benchmark-owned
// decorator), never inside src/. Every span is folded into per-layer
// aggregates when it closes: total time, self time (the span minus the
// part of it its child spans cover) and call count. Aggregates, not a span
// log, because the CC layer alone opens millions of spans per trial.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class Layer : uint8_t {
  kRunner,             // runner::RunTrials, around one trial body
  kTrial,              // the trial body: set-up, run, read-out
  kNetBuild,           // BuildClos
  kNetStartFlow,       // Network::StartFlow, direct or via LaunchFlow
  kSimRun,             // Network::Run
  kHybridRun,          // hybrid::HybridEngine::Run
  kCc,                 // CcPolicy signal handlers (the traced decorator)
  kWorkloadLaunch,     // WorkloadPattern emission: Begin and its timers
  kWorkloadCallback,   // WorkloadPattern::OnFlowComplete
  kCount,
};

inline constexpr std::array<const char*, static_cast<size_t>(Layer::kCount)>
    kLayerNames = {"runner", "trial",  "net.build", "net.start_flow",
                   "sim.run", "hybrid.run", "cc", "workload.launch",
                   "workload.callback"};

struct LayerTotals {
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  int64_t calls = 0;
};

class Tracer {
 public:
  void Begin(Layer layer) { stack_.push_back({layer, NowNs(), 0}); }

  void End() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const int64_t d = NowNs() - f.start_ns;
    LayerTotals& t = totals_[static_cast<size_t>(f.layer)];
    t.total_ns += d;
    t.self_ns += d - f.child_ns;
    ++t.calls;
    if (!stack_.empty()) stack_.back().child_ns += d;
  }

  const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<size_t>(layer)];
  }

 private:
  struct Frame {
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;
  };

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Frame> stack_;
  std::array<LayerTotals, static_cast<size_t>(Layer::kCount)> totals_{};
};

// Opens a span for the enclosing scope; a null tracer records nothing, which
// is how the untraced run shares code with the traced one.
class Span {
 public:
  Span(Tracer* t, Layer layer) : t_(t) {
    if (t_ != nullptr) t_->Begin(layer);
  }
  ~Span() {
    if (t_ != nullptr) t_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

}  // namespace perfbench
