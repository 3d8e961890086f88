// Host speed reference. On a shared host the speed the benchmark gets
// drifts by 15-30% over tens of seconds, with co-tenants' load, and a run
// cannot wait that out. So the timed loops interleave a fixed reference
// kernel with their work — one sample after every grid cell or job — and
// scale each time by kReferenceUnit_s over the kernel's median time in the
// samples around it. The kernel belongs to the benchmark, not to the
// simulator, so a change to the simulator cannot move it.
//
// The kernel is a small interpreter, because a cycle simulator is one: a
// switch over random opcodes with a data-dependent branch and loads and
// stores into 256 KiB, then calls through a table of 512 distinct
// handlers, whose code overflows the first-level instruction cache and
// whose indirect calls defeat the branch target predictor. Kernels that
// only touched data tracked the simulator's slowdowns much less well.
#include <algorithm>
#include <array>
#include <utility>

#include "bench.h"

namespace perfbench {

namespace {

using reese::u16;

constexpr usize kMemoryWords = usize{1} << 16;  // 256 KiB
constexpr usize kCodeLength = usize{1} << 16;
constexpr u32 kSwitchSteps = 100'000;
constexpr u32 kHandlerSteps = 50'000;

volatile u64 g_sink = 0;

u64 xorshift(u64* state) {
  *state ^= *state << 13;
  *state ^= *state >> 7;
  *state ^= *state << 17;
  return *state;
}

template <int N>
u32 handler(u32 a, u32 b, u32* memory) {
  u32 x = a * (2654435761u + N) ^ (b >> (N % 13));
  if ((x >> (N % 7)) & 1) {
    x += memory[(x + N) & (kMemoryWords - 1)];
  } else {
    memory[(a ^ N) & (kMemoryWords - 1)] = x;
  }
  for (int i = 0; i < N % 3; ++i) x = (x << 5) ^ (x >> 3) ^ N;
  return x;
}

using Handler = u32 (*)(u32, u32, u32*);

template <int... I>
constexpr std::array<Handler, sizeof...(I)> handler_table(
    std::integer_sequence<int, I...>) {
  return {&handler<I>...};
}

const std::array<Handler, 512> kHandlers =
    handler_table(std::make_integer_sequence<int, 512>{});

struct State {
  std::vector<u32> memory = std::vector<u32>(kMemoryWords, 3);
  std::vector<u16> code;
  State() : code(kCodeLength) {
    u64 seed = 0x0DDBA11;
    for (u16& op : code) op = static_cast<u16>(xorshift(&seed) % 512);
  }
};

u32 run_switch(State* state) {
  u32* memory = state->memory.data();
  u32 r[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  usize pc = 0;
  for (u32 i = 0; i < kSwitchSteps; ++i) {
    const u32 op = state->code[pc] % 16;
    const u32 a = r[op & 7];
    const u32 b = r[(op >> 1) & 7];
    const usize mask = kMemoryWords - 1;
    switch (op) {
      case 0: r[0] = a + b; break;
      case 1: r[1] = a - b; break;
      case 2: r[2] = a ^ (b << 3); break;
      case 3: r[3] = a * 2654435761u; break;
      case 4: r[4] = memory[a & mask]; break;
      case 5: memory[b & mask] = a; break;
      case 6: r[6] = a >> 3; break;
      case 7: r[7] = a | b; break;
      case 8: if (a & 1) pc += 3; break;
      case 9: if (a < b) pc += 7; break;
      case 10: r[2] = memory[(a + b) & mask] + 1; break;
      case 11: r[5] = a & b; break;
      case 12: r[1] = b + 17; break;
      case 13: memory[(a * 31) & mask] ^= b; break;
      case 14: if ((a ^ b) & 4) pc += 11; break;
      default: r[0] += 1; break;
    }
    pc = (pc + 1) & (kCodeLength - 1);
  }
  return r[0] + r[3];
}

u32 run_handlers(State* state) {
  u32 a = 1, b = 2;
  for (u32 i = 0; i < kHandlerSteps; ++i) {
    const u32 next =
        kHandlers[state->code[(i * 7 + a) & (kCodeLength - 1)]](
            a, b, state->memory.data());
    b = a;
    a = next;
  }
  return a;
}

}  // namespace

ReferenceSample reference_sample() {
  static State state;
  const double start = now_s();
  const double start_cpu = thread_cpu_s();
  g_sink = run_switch(&state) + run_handlers(&state);
  return {now_s() - start, thread_cpu_s() - start_cpu};
}

double speed_scale(const std::vector<double>& samples) {
  return samples.empty() ? 1.0 : kReferenceUnit_s / median(samples);
}

std::vector<double> local_speed_scales(const std::vector<double>& samples) {
  constexpr usize kHalf = kLocalReferenceSamples / 2;
  std::vector<double> scales(samples.size());
  for (usize i = 0; i < samples.size(); ++i) {
    const usize lo = i < kHalf ? 0 : i - kHalf;
    const usize hi = std::min(samples.size(), i + kHalf + 1);
    scales[i] = speed_scale(
        std::vector<double>(samples.begin() + lo, samples.begin() + hi));
  }
  return scales;
}

}  // namespace perfbench
