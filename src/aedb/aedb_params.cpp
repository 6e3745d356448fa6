#include "aedb/aedb_params.hpp"

#include <algorithm>
#include <sstream>

#include "common/assert.hpp"

namespace aedbmls::aedb {

const std::array<std::pair<double, double>, AedbParams::kDimensions>&
AedbParams::domain() {
  static const std::array<std::pair<double, double>, kDimensions> d = {{
      {0.0, 1.0},      // min delay [s]
      {0.0, 5.0},      // max delay [s]
      {-95.0, -70.0},  // border threshold [dBm]
      {0.0, 3.0},      // margin threshold [dB]
      {0.0, 50.0},     // neighbors threshold [devices]
  }};
  return d;
}

const std::array<std::pair<double, double>, AedbParams::kDimensions>&
AedbParams::sa_domain() {
  // §III-B: min/max delay in [0,5] s, border magnitude in [0,95] (we keep the
  // physical sign: [-95, 0] dBm), margin in [0,16.2] dB, neighbors in [0,100].
  static const std::array<std::pair<double, double>, kDimensions> d = {{
      {0.0, 5.0},
      {0.0, 5.0},
      {-95.0, 0.0},
      {0.0, 16.2},
      {0.0, 100.0},
  }};
  return d;
}

AedbParams AedbParams::from_vector(const std::vector<double>& x) {
  AEDB_REQUIRE(x.size() == kDimensions, "AEDB decision vector must have 5 entries");
  AedbParams p;
  p.min_delay_s = x[kMinDelay];
  p.max_delay_s = x[kMaxDelay];
  p.border_threshold_dbm = x[kBorderThreshold];
  p.margin_threshold_db = x[kMarginThreshold];
  p.neighbors_threshold = x[kNeighborsThreshold];
  if (p.min_delay_s > p.max_delay_s) std::swap(p.min_delay_s, p.max_delay_s);
  return p;
}

std::string AedbParams::to_string() const {
  std::ostringstream os;
  os << "AedbParams{delay=[" << min_delay_s << "," << max_delay_s
     << "]s border=" << border_threshold_dbm
     << "dBm margin=" << margin_threshold_db
     << "dB neighbors=" << neighbors_threshold << "}";
  return os.str();
}

const std::array<std::string, AedbParams::kDimensions>& AedbParams::names() {
  static const std::array<std::string, kDimensions> n = {
      "min_delay", "max_delay", "border_threshold", "margin_threshold",
      "neighbors_threshold"};
  return n;
}

}  // namespace aedbmls::aedb
