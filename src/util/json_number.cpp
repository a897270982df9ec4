#include "util/json_number.h"

#include <charconv>
#include <cmath>

namespace abe {

void append_json_number(std::string* out, double v) {
  // "-1.2345678901234567e-308" is the longest rendering: 24 characters.
  char buf[32];
  const double r = std::nearbyint(v);
  const std::to_chars_result written =
      r == v && std::fabs(v) < 9.007199254740992e15
          ? std::to_chars(buf, buf + sizeof buf, static_cast<long long>(r))
          : std::to_chars(buf, buf + sizeof buf, v,
                          std::chars_format::general, 17);
  out->append(buf, written.ptr);
}

std::string json_number(double v) {
  std::string out;
  append_json_number(&out, v);
  return out;
}

}  // namespace abe
