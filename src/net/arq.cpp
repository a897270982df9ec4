#include "net/arq.h"

#include <sstream>

#include "net/network.h"
#include "net/topology.h"
#include "util/check.h"

// run_arq_experiment sets a per-channel loss (Network::set_channel_loss)
// that RuntimeConfig does not carry, so it still drives a Network of its
// own. It goes with the ROADMAP item "The paper's claims as gated sweep
// cells": ported to a claim cell, or deleted with bench E7.
// abe-lint: allow-file(direct-network)

namespace abe {

std::string ArqPayload::describe() const {
  std::ostringstream os;
  os << (kind_ == Kind::kData ? "DATA" : "ACK") << "(" << seq_ << ")";
  return os.str();
}

ArqSender::ArqSender(std::uint64_t total_packets, double timeout_local)
    : total_packets_(total_packets), timeout_local_(timeout_local) {
  ABE_CHECK_GT(total_packets, 0u);
  ABE_CHECK_GT(timeout_local, 0.0);
}

void ArqSender::on_start(Context& ctx) { transmit(ctx); }

void ArqSender::bind_metrics(MetricsRegistry& registry, double slot) {
  ABE_CHECK_GT(slot, 0.0);
  rtt_hist_ = &registry.histogram(
      "arq.rtt", FixedHistogram::log2_bounds(slot, /*below=*/2, /*above=*/6));
}

void ArqSender::transmit(Context& ctx) {
  if (attempts_current_ == 0) {
    first_send_time_ = ctx.real_now();
  } else {
    ++retransmissions_;
  }
  ++attempts_current_;
  ctx.send(0, std::make_unique<ArqPayload>(ArqPayload::Kind::kData, seq_));
  pending_timer_ = ctx.set_timer_local(timeout_local_, seq_);
  waiting_ = true;
}

void ArqSender::on_message(Context& ctx, std::size_t /*in_index*/,
                           const Payload& payload) {
  const auto& ack = payload_as<ArqPayload>(payload);
  ABE_CHECK(ack.kind() == ArqPayload::Kind::kAck);
  ++acks_received_;
  if (!waiting_ || ack.seq() != seq_) {
    return;  // stale ack of an earlier (retransmitted) packet
  }
  waiting_ = false;
  ctx.cancel_timer(pending_timer_);
  attempts_.add(static_cast<double>(attempts_current_));
  const double rtt = ctx.real_now() - first_send_time_;
  latency_.add(rtt);
  if (rtt_hist_ != nullptr) rtt_hist_->record(rtt);
  ++delivered_;
  attempts_current_ = 0;
  ++seq_;
  if (seq_ >= total_packets_) {
    done_ = true;
  } else {
    transmit(ctx);
  }
}

void ArqSender::on_timer(Context& ctx, TimerId /*id*/, std::uint64_t tag) {
  if (done_ || !waiting_ || tag != seq_) {
    return;  // timer raced with the ack that completed this packet
  }
  transmit(ctx);
}

std::string ArqSender::state_string() const {
  std::ostringstream os;
  os << "sender seq=" << seq_ << "/" << total_packets_
     << (done_ ? " done" : waiting_ ? " waiting" : "");
  return os.str();
}

void ArqReceiver::on_message(Context& ctx, std::size_t /*in_index*/,
                             const Payload& payload) {
  const auto& data = payload_as<ArqPayload>(payload);
  ABE_CHECK(data.kind() == ArqPayload::Kind::kData);
  if (data.seq() == next_expected_) {
    ++received_;
    ++next_expected_;
  } else {
    ++duplicates_;
  }
  // Ack unconditionally: the previous ack may have been delayed past the
  // sender's timeout.
  ctx.send(0,
           std::make_unique<ArqPayload>(ArqPayload::Kind::kAck, data.seq()));
}

ArqResult run_arq_experiment(double p_success, std::uint64_t packets,
                             double slot, std::uint64_t seed) {
  ABE_CHECK_GT(p_success, 0.0);
  ABE_CHECK_LE(p_success, 1.0);
  NetworkConfig config;
  config.topology = line(2);  // edges: 0->1 (data), 1->0 (ack)
  config.delay = fixed_delay(slot / 2.0);  // one-way; round trip = slot
  config.ordering = ChannelOrdering::kFifo;
  config.seed = seed;
  Network net(std::move(config));
  // DATA direction drops with probability 1 - p; ACK direction is clean.
  // line(2) emits edges in order {0->1, 1->0}.
  net.set_channel_loss(0, 1.0 - p_success >= 1.0 ? 0.999999 : 1.0 - p_success);

  // Timeout slightly above the round trip so a lone loss retransmits after
  // exactly one wasted slot — matching the slotted model of the paper.
  auto* sender = new ArqSender(packets, slot * 1.05);
  auto* receiver = new ArqReceiver();
  MetricsRegistry registry;
  sender->bind_metrics(registry, slot);
  net.add_node(NodePtr(sender));
  net.add_node(NodePtr(receiver));
  net.start();
  const bool finished = net.run_until(
      [&] { return sender->is_terminated(); },
      /*deadline=*/1e9);
  ABE_CHECK(finished) << "ARQ run did not complete (p=" << p_success << ")";

  ArqResult result;
  result.mean_attempts = sender->attempts_per_packet().mean();
  result.mean_latency = sender->latency_per_packet().mean();
  result.packets = sender->packets_delivered();
  result.duplicates = receiver->duplicates();
  result.retransmits = sender->retransmissions();
  result.predicted_attempts = 1.0 / p_success;
  result.metrics = registry.snapshot();
  result.metrics.add_counter("arq.retransmits",
                             static_cast<double>(sender->retransmissions()));
  result.metrics.add_counter("arq.acks",
                             static_cast<double>(sender->acks_received()));
  result.metrics.add_counter("arq.duplicates",
                             static_cast<double>(receiver->duplicates()));
  result.metrics.add_counter("arq.delivered",
                             static_cast<double>(sender->packets_delivered()));
  return result;
}

}  // namespace abe
