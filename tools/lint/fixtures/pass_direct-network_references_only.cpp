// abe-lint-fixture-path: src/core/network_reader.cpp
// Code outside the runtime may read a network it is handed: references and
// pointers, WallNetwork and the words in comments and strings never trip.
// (A Network net(config) in prose is fine.)
#include <string>

#include "net/network.h"

namespace abe {

std::uint64_t sent(const Network& net, const Network* other) {
  const std::string label = "Network net(config);";
  return net.metrics().messages_sent + other->metrics().messages_sent +
         label.size();
}

std::size_t wall_size(const WallNetwork& wall) { return wall.size(); }

}  // namespace abe
