// Strongly-typed identifiers used throughout the dAuth protocol.
//
// Using distinct wrapper types (rather than bare strings/ints) prevents the
// classic bug of passing a subscriber ID where a network ID is expected.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace dauth {

/// Identifies one operator/network in the federation (home, serving, backup
/// are *roles*, not identities — the same network can play all three).
class NetworkId {
 public:
  NetworkId() = default;
  explicit NetworkId(std::string name) : name_(std::move(name)) {}

  const std::string& str() const noexcept { return name_; }
  bool empty() const noexcept { return name_.empty(); }

  auto operator<=>(const NetworkId&) const = default;

 private:
  std::string name_;
};

/// A subscriber's permanent identifier (IMSI in 4G, SUPI in 5G).
/// Stored as the canonical 15-digit decimal string, e.g. "901550000000001".
class Supi {
 public:
  Supi() = default;
  explicit Supi(std::string digits) : digits_(std::move(digits)) {}

  const std::string& str() const noexcept { return digits_; }
  bool empty() const noexcept { return digits_.empty(); }

  /// Mobile Country Code — first 3 digits.
  std::string_view mcc() const { return std::string_view(digits_).substr(0, 3); }
  /// Mobile Network Code — digits 4-6 (we use 3-digit MNCs throughout).
  std::string_view mnc() const { return std::string_view(digits_).substr(3, 3); }
  /// Subscriber part (MSIN).
  std::string_view msin() const { return std::string_view(digits_).substr(6); }

  auto operator<=>(const Supi&) const = default;

 private:
  std::string digits_;
};

/// Temporary identifier assigned by a serving network after a successful
/// registration (GUTI in 3GPP terms). Meaningful only to its issuer.
struct Guti {
  NetworkId issuer;
  std::uint64_t value = 0;

  template <typename F, typename Self>
  static void fields(F& f, Self& m) {
    f.field(m.issuer, m.value);
  }

  auto operator<=>(const Guti&) const = default;
};

}  // namespace dauth

template <>
struct std::hash<dauth::NetworkId> {
  std::size_t operator()(const dauth::NetworkId& id) const noexcept {
    return std::hash<std::string>{}(id.str());
  }
};

template <>
struct std::hash<dauth::Supi> {
  std::size_t operator()(const dauth::Supi& id) const noexcept {
    return std::hash<std::string>{}(id.str());
  }
};
