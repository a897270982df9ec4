#include "ladders.h"

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "net/delay.h"
#include "net/message.h"
#include "net/network.h"
#include "net/node.h"
#include "sim/equeue/event_queue.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "spans.h"

namespace perfbench {
namespace {

volatile double g_sink = 0.0;  // keeps sampled values observable

constexpr std::uint32_t kDeltaMask = (1u << 16) - 1;

// Pre-sampled increments from the workload's delay model, so the queue rows
// price the queue and not the RNG.
std::vector<double> delta_table(const std::string& delay_name) {
  const abe::DelayModelPtr model = abe::make_delay_model(delay_name, 1.0);
  abe::Rng rng(42);
  std::vector<double> deltas(kDeltaMask + 1);
  for (double& d : deltas) d = model->sample(rng);
  return deltas;
}

std::uint64_t bits_of(double t) {
  std::uint64_t b = 0;
  std::memcpy(&b, &t, sizeof(b));
  return b;
}

// Runs `batch()` (which returns the operations it performed) until
// `seconds` have passed, after one untimed warm-up batch; returns ns/op.
double ns_per_op(double seconds, const std::function<std::uint64_t()>& batch) {
  batch();
  std::uint64_t ops = 0;
  const Clock::time_point start = Clock::now();
  Clock::time_point now = start;
  while (ms_between(start, now) < seconds * 1000.0) {
    ops += batch();
    now = Clock::now();
  }
  return ms_between(start, now) * 1e6 / static_cast<double>(ops);
}

// Self-rescheduling event: the smallest action that keeps the pending set
// at a constant size (the hold model).
struct HoldAction {
  abe::Scheduler* sched;
  const double* deltas;
  std::uint32_t k;
  void operator()() {
    sched->schedule_in(deltas[k & kDeltaMask], HoldAction{sched, deltas, k + 1});
  }
};

double sched_dispatch_ns(const LadderShape& shape,
                         const std::vector<double>& deltas, double seconds) {
  abe::Scheduler sched(abe::EqueueBackend::kAuto);
  for (std::uint32_t i = 0; i < shape.pending; ++i) {
    sched.schedule_at(deltas[i & kDeltaMask],
                      HoldAction{&sched, deltas.data(), i * 7919u});
  }
  return ns_per_op(seconds, [&] { return sched.run_steps(1u << 16); });
}

double equeue_hold_ns(abe::EqueueBackend backend, const LadderShape& shape,
                      const std::vector<double>& deltas, double seconds) {
  std::unique_ptr<abe::EventQueue> q = abe::make_event_queue(backend);
  std::uint64_t seq = 0;
  std::uint32_t k = 0;
  for (std::size_t i = 0; i < shape.pending; ++i, ++seq) {
    q->push(abe::QueueEntry{bits_of(deltas[k++ & kDeltaMask]), seq,
                            static_cast<std::uint32_t>(i)});
  }
  return ns_per_op(seconds, [&] {
    constexpr std::uint64_t kOps = 1u << 16;
    for (std::uint64_t i = 0; i < kOps; ++i) {
      const abe::QueueEntry e = q->pop_min();
      q->push(abe::QueueEntry{
          bits_of(abe::entry_time(e) + deltas[k++ & kDeltaMask]), seq++,
          e.slot});
    }
    return kOps;
  });
}

class NoopNode final : public abe::Node {
 public:
  void on_message(abe::Context&, std::size_t, const abe::Payload&) override {}
};

// Keeps one token per node in flight: each delivery is answered by one
// send, round-robin over the node's out-channels.
class EchoNode final : public abe::Node {
 public:
  void on_start(abe::Context& ctx) override { forward(ctx); }
  void on_message(abe::Context& ctx, std::size_t,
                  const abe::Payload&) override {
    forward(ctx);
  }

 private:
  void forward(abe::Context& ctx) {
    ctx.send(next_++ % ctx.out_degree(), std::make_unique<abe::IntPayload>(0));
  }
  std::size_t next_ = 0;
};

// ns per processed event of a Network of null nodes: ticks on with no-op
// handlers, or ticks off with one echo token per node.
double network_ns(const LadderShape& shape, bool ticks, double seconds) {
  abe::Rng topo_rng(1);
  abe::NetworkConfig config;
  config.topology = shape.topology.build(topo_rng);
  config.delay = abe::make_delay_model(shape.delay_name, 1.0);
  config.enable_ticks = ticks;
  config.metrics = true;
  config.causal_history = shape.causal_history;
  config.seed = 1;
  const std::size_t n = config.topology.n;
  abe::Network net(std::move(config));
  net.build_nodes([ticks](std::size_t) -> abe::NodePtr {
    if (ticks) return std::make_unique<NoopNode>();
    return std::make_unique<EchoNode>();
  });
  net.start();
  // About 2^16 events per step: n events per sim time unit either way.
  const double step = 65536.0 / static_cast<double>(n);
  double deadline = 0.0;
  return ns_per_op(seconds, [&] {
    const std::uint64_t before = net.scheduler().processed_count();
    deadline += step;
    net.run_until([] { return false; }, deadline);
    return net.scheduler().processed_count() - before;
  });
}

double delay_sample_ns(const LadderShape& shape, double seconds) {
  const abe::DelayModelPtr model = abe::make_delay_model(shape.delay_name, 1.0);
  abe::Rng rng(7);
  return ns_per_op(seconds, [&] {
    constexpr std::uint64_t kOps = 1u << 16;
    double sum = 0.0;
    for (std::uint64_t i = 0; i < kOps; ++i) sum += model->sample(rng);
    g_sink = g_sink + sum;
    return kOps;
  });
}

}  // namespace

LadderResults run_ladders(const LadderShape& shape, double row_seconds) {
  const std::vector<double> deltas = delta_table(shape.delay_name);
  LadderResults r;
  r.sched_dispatch_ns = sched_dispatch_ns(shape, deltas, row_seconds);
  r.hold_heap_ns = equeue_hold_ns(abe::EqueueBackend::kHeap, shape, deltas,
                                  row_seconds);
  r.hold_calendar_ns = equeue_hold_ns(abe::EqueueBackend::kCalendar, shape,
                                      deltas, row_seconds);
  r.hold_ladder_ns = equeue_hold_ns(abe::EqueueBackend::kLadder, shape,
                                    deltas, row_seconds);
  r.net_tick_ns = network_ns(shape, /*ticks=*/true, row_seconds);
  r.net_message_ns = network_ns(shape, /*ticks=*/false, row_seconds);
  r.delay_sample_ns = delay_sample_ns(shape, row_seconds);
  return r;
}

}  // namespace perfbench
