#include "perfbench/host_speed.h"

#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace perfbench {
namespace {

uint64_t SplitMix(uint64_t* s) {
  uint64_t z = (*s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

volatile uint64_t g_sink;

}  // namespace

double ReferenceWorkSeconds() {
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t s = 1;
  std::vector<std::vector<uint64_t>> blocks;
  for (uint64_t i = 0; i < 4096; ++i) {
    blocks.emplace_back(64 + SplitMix(&s) % 448, i);
  }
  std::unordered_map<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < (1 << 16); ++i) map[SplitMix(&s)] = i;
  uint64_t sum = 0;
  s = 1;
  for (int i = 0; i < (1 << 18); ++i) {
    const uint64_t r = SplitMix(&s);
    const std::vector<uint64_t>& b = blocks[r % blocks.size()];
    sum += b[(r >> 32) % b.size()];
    const auto it = map.find(r);
    if (it != map.end()) sum += it->second;
  }
  g_sink = sum;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
