#include "obs/timeseries.h"

#include <algorithm>

#include "util/check.h"
#include "util/json_number.h"

namespace abe {

void TimeSeries::merge(const TimeSeries& other) {
  if (other.trials == 0 && other.samples.empty()) return;
  if (trials == 0 && samples.empty()) {
    *this = other;
    return;
  }
  ABE_CHECK_EQ(interval, other.interval)
      << "time-series merge across different grids";
  trials += other.trials;
  const std::size_t shared = std::min(samples.size(), other.samples.size());
  for (std::size_t i = 0; i < shared; ++i) {
    samples[i].pending += other.samples[i].pending;
    samples[i].in_flight += other.samples[i].in_flight;
    samples[i].live += other.samples[i].live;
  }
  for (std::size_t i = shared; i < other.samples.size(); ++i) {
    samples.push_back(other.samples[i]);
  }
}

void TimeSeries::append_json(std::string* out) const {
  ABE_CHECK(out != nullptr);
  const double denom = trials == 0 ? 1.0 : static_cast<double>(trials);
  *out += "\"timeseries\": {\"interval\": ";
  append_json_number(out, interval);
  *out += ", \"trials\": ";
  append_json_number(out, static_cast<double>(trials));
  *out += ", \"samples\": [";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i > 0) *out += ", ";
    const TimeSeriesSample& s = samples[i];
    *out += "{\"t\": ";
    append_json_number(out, s.t);
    *out += ", \"pending\": ";
    append_json_number(out, s.pending / denom);
    *out += ", \"in_flight\": ";
    append_json_number(out, s.in_flight / denom);
    *out += ", \"live\": ";
    append_json_number(out, s.live / denom);
    *out += "}";
  }
  *out += "]}";
}

}  // namespace abe
