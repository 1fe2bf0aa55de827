// The simulated cloud's geography. Six 2013-era Azure datacenters
// (North/West Europe, North/South/East/West US) remain the named built-in
// sites of the default calibrated topology, but a Region is now just a
// dense runtime site index: topology generators mint synthetic regions
// (R006, R007, ...) far past the named six, up to tens of thousands of
// sites. Nothing in the data or control plane may assume kRegionCount —
// it is the size of the *named* set, not of the deployment.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sage::cloud {

enum class Region : std::uint16_t {
  kNorthEU = 0,
  kWestEU = 1,
  kNorthUS = 2,
  kSouthUS = 3,
  kEastUS = 4,
  kWestUS = 5,
};

/// Number of *named* built-in regions (the default calibrated topology).
/// Runtime deployments may span far more sites; size runtime state off
/// Topology::region_count(), never off this constant.
inline constexpr std::size_t kRegionCount = 6;

inline constexpr std::array<Region, kRegionCount> kAllRegions = {
    Region::kNorthEU, Region::kWestEU, Region::kNorthUS,
    Region::kSouthUS, Region::kEastUS, Region::kWestUS,
};

[[nodiscard]] constexpr std::size_t region_index(Region r) {
  return static_cast<std::size_t>(r);
}

/// The i-th region of a deployment (synthetic past the named six).
[[nodiscard]] constexpr Region make_region(std::size_t i) {
  return static_cast<Region>(static_cast<std::uint16_t>(i));
}

namespace detail {
/// Stable interned label for a synthetic region index ("R042"). Thread-safe
/// (harness worlds run on sweep threads); returned views never dangle.
[[nodiscard]] std::string_view synthetic_region_label(std::size_t index);
}  // namespace detail

/// Human label for traces / tables. Named regions keep their historical
/// labels; synthetic regions fall back to a generated "R042"-style code so
/// obs labels and --json output stay meaningful at any N.
[[nodiscard]] inline std::string_view region_name(Region r) {
  static constexpr std::array<std::string_view, kRegionCount> kNames = {
      "North EU", "West EU", "North US", "South US", "East US", "West US",
  };
  const std::size_t i = region_index(r);
  if (i < kNames.size()) return kNames[i];
  return detail::synthetic_region_label(i);
}

/// Short code for CSV/compact output ("NEU", ..., "R042" for synthetic).
[[nodiscard]] inline std::string_view region_code(Region r) {
  static constexpr std::array<std::string_view, kRegionCount> kCodes = {
      "NEU", "WEU", "NUS", "SUS", "EUS", "WUS",
  };
  const std::size_t i = region_index(r);
  if (i < kCodes.size()) return kCodes[i];
  return detail::synthetic_region_label(i);
}

}  // namespace sage::cloud
