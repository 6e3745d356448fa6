#pragma once

/// Radio power unit conversions.
///
/// The wireless stack keeps powers in dBm at interfaces (that is what the
/// AEDB thresholds are expressed in) and converts to mW only when powers
/// must be *summed* (interference accumulation, physical energy).

#include <cmath>

namespace aedbmls {

/// dBm -> milliwatts.
[[nodiscard]] inline double dbm_to_mw(double dbm) noexcept {
  return std::pow(10.0, dbm / 10.0);
}

/// milliwatts -> dBm.  mw must be > 0.
[[nodiscard]] inline double mw_to_dbm(double mw) noexcept {
  return 10.0 * std::log10(mw);
}

/// dB ratio -> linear ratio.
[[nodiscard]] inline double db_to_ratio(double db) noexcept {
  return std::pow(10.0, db / 10.0);
}

}  // namespace aedbmls
