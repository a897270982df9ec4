// E15 — Real-socket transport: what bounded expected delay costs when the
// datagrams are real.
//
// The udp runtime (runtime/udp_transport.h) replaces the simulator's sampled
// DelayModel with measured loopback transit. This bench prices that
// substrate and publishes the numbers the ROADMAP records:
//
//   rtt            — raw UdpSocket ping-pong round trips: the kernel
//                    loopback floor under the measured-delay histogram
//                    (percentiles over a few thousand echoes).
//   arq goodput    — messages through the reliable ARQ channel per wall
//                    second as injected per-attempt loss rises: what
//                    retransmission costs when the loss is real suppressed
//                    datagrams, not simulator bookkeeping (cf. E7, the
//                    simulated retransmission experiment).
//   calibration    — fit_udp_calibration on a harvested run: the measured
//                    offset/mean that close the loop back into a
//                    simulator DelayModel.
//
// The strict A/B gate (ci.yml) runs BM_UdpDatagramRoundTrip and
// BM_UdpArqBurst back to back on like hardware: a regression is a tax on
// every real-socket trial.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "net/delay.h"
#include "net/message.h"
#include "net/node.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "runtime/udp_socket.h"
#include "runtime/udp_transport.h"
#include "runtime/wall_net.h"
#include "stats/table.h"

namespace abe {
namespace {

// One blocking round trip: send `size` bytes, poll until the echo-less
// receiver sees it. Returns wall microseconds, or -1 on a lost datagram
// (loopback under memory pressure may drop).
double one_way_us(const UdpSocket& tx, const UdpSocket& rx, char* buffer,
                  std::size_t size) {
  const auto t0 = std::chrono::steady_clock::now();
  if (!tx.send_to(rx.port(), buffer, size)) return -1.0;
  for (int attempt = 0; attempt < 50; ++attempt) {
    if (rx.receive(buffer, size) > 0) {
      return std::chrono::duration<double, std::micro>(
                 std::chrono::steady_clock::now() - t0)
          .count();
    }
  }
  return -1.0;
}

// Sends `count` messages down edge 0 from on_start, then idles terminated.
class Burster final : public Node {
 public:
  explicit Burster(std::uint64_t count) : count_(count) {}
  void on_start(Context& ctx) override {
    for (std::uint64_t i = 0; i < count_; ++i) {
      ctx.send(0, std::make_unique<IntPayload>(static_cast<std::int64_t>(i)));
    }
  }
  void on_message(Context&, std::size_t, const Payload&) override {}
  bool is_terminated() const override { return true; }

 private:
  std::uint64_t count_;
};

class Sink final : public Node {
 public:
  void on_message(Context&, std::size_t, const Payload&) override {}
};

struct ArqRun {
  double seconds = 0.0;
  std::uint64_t delivered = 0;
  double retransmits = 0.0;
  MetricsSnapshot snapshot;
};

// One reliable two-node burst under per-attempt loss `loss`: wall time
// from start() to quiescence (every message ACKed and handled).
ArqRun arq_burst(double loss, std::uint64_t messages, std::uint64_t seed) {
  RuntimeConfig config;
  config.plan = make_plan(unidirectional_ring(2));
  config.delay = fixed_delay(0.05);
  config.time_scale_us = 50.0;
  config.drift = DriftModel::kFixedRandomRate;
  config.loss_probability = loss;
  config.udp_reliable = true;
  config.seed = seed;
  WallNetwork net(RuntimeKind::kUdp, std::move(config));
  net.build_nodes([&](std::size_t i) -> NodePtr {
    if (i == 0) return std::make_unique<Burster>(messages);
    return std::make_unique<Sink>();
  });
  const auto t0 = std::chrono::steady_clock::now();
  net.start();
  const bool quiescent = net.wait_quiescent(std::chrono::milliseconds(30000));
  ArqRun run;
  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  net.stop();
  run.delivered = quiescent ? net.messages_delivered() : 0;
  run.snapshot = net.metrics_snapshot();
  for (const MetricValue& entry : run.snapshot.entries()) {
    if (entry.name == "udp.retransmits") run.retransmits = entry.value;
  }
  return run;
}

}  // namespace

namespace benchutil {

void print_experiment_tables() {
  print_header("E15",
               "the real-socket substrate: measured loopback round trips, "
               "ARQ goodput under real suppressed datagrams, and the "
               "measured-delay calibration that feeds back into the "
               "simulator's DelayModel");

  // --- RTT percentiles ----------------------------------------------------
  {
    UdpSocket tx;
    UdpSocket rx;
    char buffer[64] = {};
    std::vector<double> samples;
    constexpr int kEchoes = 4000;
    samples.reserve(kEchoes);
    for (int i = 0; i < kEchoes; ++i) {
      const double us = one_way_us(tx, rx, buffer, sizeof(buffer));
      if (us >= 0.0) samples.push_back(us);
    }
    std::sort(samples.begin(), samples.end());
    const auto pct = [&](double q) {
      const auto idx = static_cast<std::size_t>(
          q * static_cast<double>(samples.size() - 1));
      return samples[idx];
    };
    Table table({"metric", "us"});
    table.add_row({"p50", Table::fmt(pct(0.50), 1)});
    table.add_row({"p90", Table::fmt(pct(0.90), 1)});
    table.add_row({"p99", Table::fmt(pct(0.99), 1)});
    table.add_row({"max", Table::fmt(samples.back(), 1)});
    std::printf("%s\n",
                table.render("E15: loopback datagram transit (send->recv, "
                             + std::to_string(samples.size()) + " samples)")
                    .c_str());
  }

  // --- ARQ goodput vs loss ------------------------------------------------
  {
    Table table({"loss", "delivered", "retransmits", "seconds", "msgs/s"});
    constexpr std::uint64_t kMessages = 1000;
    for (const double loss : {0.0, 0.1, 0.3, 0.5}) {
      const ArqRun run = arq_burst(loss, kMessages, /*seed=*/1);
      table.add_row(
          {Table::fmt(loss, 2),
           Table::fmt_int(static_cast<std::int64_t>(run.delivered)),
           Table::fmt_int(static_cast<std::int64_t>(run.retransmits)),
           Table::fmt(run.seconds, 3),
           Table::fmt(static_cast<double>(run.delivered) / run.seconds, 0)});
    }
    std::printf("%s\n",
                table.render("E15b: ARQ goodput vs per-attempt loss "
                             "(2 nodes, reliable channel)")
                    .c_str());
  }

  // --- calibration --------------------------------------------------------
  {
    const ArqRun run = arq_burst(0.0, 2000, /*seed=*/2);
    const UdpCalibration cal = fit_udp_calibration(run.snapshot);
    Table table({"metric", "value"});
    table.add_row({"samples", Table::fmt_int(
                                  static_cast<std::int64_t>(cal.samples))});
    table.add_row({"offset_us", Table::fmt(cal.offset_us, 1)});
    table.add_row({"mean_extra_us", Table::fmt(cal.mean_extra_us, 1)});
    std::printf("%s\n",
                table.render("E15c: measured-delay calibration "
                             "(fit_udp_calibration -> shifted exponential)")
                    .c_str());
  }
}

}  // namespace benchutil

// --- microbenchmarks (the tracked perf trajectory) -------------------------

// The raw transport floor: one 64-byte datagram send + receive through the
// kernel loopback path. Items = datagrams.
static void BM_UdpDatagramRoundTrip(benchmark::State& state) {
  UdpSocket tx;
  UdpSocket rx;
  char buffer[64] = {};
  std::uint64_t lost = 0;
  for (auto _ : state) {
    if (one_way_us(tx, rx, buffer, sizeof(buffer)) < 0.0) ++lost;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["lost"] = static_cast<double>(lost);
}
BENCHMARK(BM_UdpDatagramRoundTrip);

// A full reliable burst (network bring-up, 64 messages through the ARQ
// channel, quiescence, teardown) at 0‰ and 300‰ per-attempt loss. Items =
// messages delivered; the loss arg prices retransmission.
static void BM_UdpArqBurst(benchmark::State& state) {
  const double loss = static_cast<double>(state.range(0)) / 1000.0;
  constexpr std::uint64_t kMessages = 64;
  std::uint64_t delivered = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    delivered += arq_burst(loss, kMessages, seed++).delivered;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_UdpArqBurst)->Arg(0)->Arg(300)->ArgName("loss_permille");

}  // namespace abe

ABE_BENCH_MAIN()
