// abe-lint-fixture-path: src/runtime/sim_owner.cpp
// The runtime layer owns the simulator network: SimRuntime builds the
// Network from the trial's RuntimeConfig.
#include "net/network.h"

namespace abe {

NetworkConfig to_config(std::uint64_t seed) {
  NetworkConfig net;
  net.seed = seed;
  return net;
}

class SimOwner {
 public:
  explicit SimOwner(std::uint64_t seed) : net_(to_config(seed)) {}

 private:
  Network net_;
};

}  // namespace abe
