// abe-lint-fixture-path: src/algo/rogue_runner.cpp
// An algorithm module with its own run loop: it builds the simulator
// network itself instead of running a driver through run_algorithm_trial.
// Every construction spelling here must trip.
#include <memory>

#include "net/network.h"

namespace abe {

std::uint64_t run_rogue(std::uint64_t seed) {
  NetworkConfig config;
  config.seed = seed;
  Network net(std::move(config));
  auto heap = std::make_unique<Network>(NetworkConfig{});
  net.start();
  return net.metrics().messages_sent + heap->metrics().messages_sent;
}

}  // namespace abe
