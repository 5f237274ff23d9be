// Differential conformance: the pre-refactor behaviour of all four
// congestion-control algorithms on the fig08 / fig09 / victim / incast
// scenarios, pinned as trace fingerprints. These constants were captured
// from the pre-CcPolicy code (direct RpState/TimelyState/DCTCP branches in
// SenderQp) and assert that the CcPolicy implementations reproduce that
// behaviour byte-for-byte — and that no later change drifts it silently.
//
// On an *intended* behaviour change, re-pin with:
//   ./build/bench/regen_cc_goldens        (paste the first block over kPins)
// and diff the offending pair's full trace via
//   ./build/bench/regen_cc_goldens --trace <scenario> <policy>
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "cc/scenarios.h"

namespace dcqcn {
namespace {

struct Pin {
  const char* scenario;
  const char* policy;
  uint64_t fingerprint;
  size_t trace_bytes;
};

// Without this gtest prints a Pin as its raw bytes, which start with two
// string-literal addresses; under ASLR the discovered ctest names would then
// differ on every build.
void PrintTo(const Pin& pin, std::ostream* os) {
  *os << pin.scenario << "/" << pin.policy;
}

// Captured at seed 42 from the pre-refactor state machines.
constexpr Pin kPins[] = {
    {"fig08", "dcqcn", 0x6ba2237d4b62fea7ull, 2521},
    {"fig08", "dctcp", 0x0660f0ccc0e3e274ull, 3019},
    {"fig08", "timely", 0xf9b14f6780829462ull, 2635},
    {"fig08", "qcn", 0x03aaa36a70868a04ull, 2664},
    {"fig09", "dcqcn", 0x33e06351c0fe8df4ull, 2432},
    {"fig09", "dctcp", 0xb1c20603975500fdull, 2898},
    {"fig09", "timely", 0xf80d41ce5f2a83a2ull, 2517},
    {"fig09", "qcn", 0xe26bc93c16c51fc1ull, 2553},
    {"victim", "dcqcn", 0x4fd8bc9d3e86f343ull, 3385},
    {"victim", "dctcp", 0x19b0a5c9aaf5c9dbull, 4091},
    {"victim", "timely", 0x0766a96a7f0a0f6dull, 3256},
    {"victim", "qcn", 0x8843d558402c7333ull, 3506},
    {"incast", "dcqcn", 0x27c8f649748c2351ull, 3874},
    {"incast", "dctcp", 0x1ab713a7f735843cull, 4601},
    {"incast", "timely", 0xd0deff71c9bd303bull, 3702},
    {"incast", "qcn", 0xa119dde0cca2e074ull, 4019},
};

TransportMode ModeOf(const std::string& policy) {
  if (policy == "dctcp") return TransportMode::kDctcp;
  if (policy == "timely") return TransportMode::kTimely;
  if (policy == "qcn") return TransportMode::kQcn;
  return TransportMode::kRdmaDcqcn;
}

class CcDifferential : public ::testing::TestWithParam<Pin> {};

TEST_P(CcDifferential, MatchesPreRefactorTrace) {
  const Pin& pin = GetParam();
  const std::string trace =
      cc::RunScenarioTrace(pin.scenario, ModeOf(pin.policy), 42);
  EXPECT_EQ(trace.size(), pin.trace_bytes)
      << "trace for " << pin.scenario << "/" << pin.policy
      << " changed length; full trace:\n"
      << trace;
  EXPECT_EQ(cc::TraceFingerprint(trace), pin.fingerprint)
      << "behaviour drifted for " << pin.scenario << "/" << pin.policy
      << "; diff against `regen_cc_goldens --trace " << pin.scenario << " "
      << pin.policy << "`. Current trace:\n"
      << trace;
}

// The harness itself must be replay-deterministic, or the pins above would
// be meaningless.
TEST(CcDifferential, TraceIsReplayStable) {
  const std::string a =
      cc::RunScenarioTrace("incast", TransportMode::kRdmaDcqcn, 7);
  const std::string b =
      cc::RunScenarioTrace("incast", TransportMode::kRdmaDcqcn, 7);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, cc::RunScenarioTrace("incast", TransportMode::kRdmaDcqcn, 8));
}

// Sanity: the four algorithms genuinely behave differently on every pinned
// scenario (a digest that collapsed them would prove nothing).
TEST(CcDifferential, PoliciesDivergeOnEveryScenario) {
  for (const std::string& s : cc::ConformanceScenarios()) {
    const uint64_t dcqcn = cc::TraceFingerprint(
        cc::RunScenarioTrace(s, TransportMode::kRdmaDcqcn, 42));
    const uint64_t dctcp = cc::TraceFingerprint(
        cc::RunScenarioTrace(s, TransportMode::kDctcp, 42));
    const uint64_t timely = cc::TraceFingerprint(
        cc::RunScenarioTrace(s, TransportMode::kTimely, 42));
    const uint64_t qcn = cc::TraceFingerprint(
        cc::RunScenarioTrace(s, TransportMode::kQcn, 42));
    EXPECT_NE(dcqcn, dctcp) << s;
    EXPECT_NE(dcqcn, timely) << s;
    EXPECT_NE(dcqcn, qcn) << s;
    EXPECT_NE(dctcp, timely) << s;
    EXPECT_NE(dctcp, qcn) << s;
    EXPECT_NE(timely, qcn) << s;
  }
}

std::string PinName(const ::testing::TestParamInfo<Pin>& info) {
  return std::string(info.param.scenario) + "_" + info.param.policy;
}

INSTANTIATE_TEST_SUITE_P(AllPairs, CcDifferential,
                         ::testing::ValuesIn(kPins), PinName);

}  // namespace
}  // namespace dcqcn
