// Host-speed reference for the benchmark: a fixed mini event loop (a
// binary heap of timestamped events dispatching updates to 4096 small
// entities) that prints its own wall time in seconds.
//
// run.py runs it between workload runs. It shares the simulator's access
// pattern, so on a shared host it slows with the same contention, yet it
// never changes with the program under test: dividing by its time takes
// host drift out of the workload timings without hiding program changes.
// It runs in its own process so it cannot disturb a workload's heap or
// peak RSS.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <vector>

namespace {

struct Event {
  int64_t when;
  uint32_t who;
  uint32_t kind;
  bool operator>(const Event& o) const { return when > o.when; }
};

struct Entity {
  double rate = 1.0;
  double rtt = 30.0;
  double acc = 0.0;
  int64_t last = 0;
  uint64_t sent = 0;
  uint64_t acked = 0;
  double hist[16] = {};
};

}  // namespace

int main() {
  constexpr uint32_t kEntities = 4096;
  constexpr int kEvents = 2'000'000;
  std::vector<Entity> entities(kEntities);
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  uint64_t x = 88172645463325252ULL;  // xorshift64 state
  auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (uint32_t i = 0; i < kEntities; ++i) {
    queue.push({static_cast<int64_t>(rnd() % 100000), i,
                static_cast<uint32_t>(rnd() % 3)});
  }

  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kEvents; ++i) {
    const Event ev = queue.top();
    queue.pop();
    Entity& s = entities[ev.who];
    if (ev.kind == 0) {
      ++s.sent;
      s.acc += s.rate;
      s.hist[s.sent & 15] = s.acc;
    } else if (ev.kind == 1) {
      ++s.acked;
      s.rtt = 0.875 * s.rtt + 0.125 * static_cast<double>(ev.when - s.last);
      s.last = ev.when;
    } else {
      Entity& o = entities[rnd() % kEntities];
      o.rate = 0.5 * (o.rate + s.rate) + (s.rtt > o.rtt ? 0.01 : -0.01);
    }
    queue.push({ev.when + static_cast<int64_t>(1 + rnd() % 2000), ev.who,
                static_cast<uint32_t>(rnd() % 3)});
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  double sum = 0.0;
  for (const Entity& e : entities) sum += e.rate;
  if (!std::isfinite(sum)) {
    std::fprintf(stderr, "perfbench_reference: state diverged\n");
    return 1;
  }
  std::printf("%.9f\n", elapsed);
  return 0;
}
