// register_state.hpp — the register's replicated state (paper Figure 4).
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "graph/process_set.hpp"

namespace gqs {

/// The default register value domain. The paper leaves Value abstract; the
/// core register uses a 64-bit integer, and the snapshot object
/// instantiates the register with a richer cell type.
using reg_value = std::int64_t;

/// Identifier of a logical object (a key) multiplexed over a keyed
/// service: quorum_service, smr_service and the histories they record.
using service_key = std::uint32_t;

/// Version = N × N ordered lexicographically: a monotonically increasing
/// number paired with the writer's process id (Figure 4 line 5). The
/// initial state carries version (0, 0).
struct reg_version {
  std::uint64_t number = 0;
  process_id writer = 0;

  friend constexpr auto operator<=>(const reg_version&,
                                    const reg_version&) = default;

  std::string to_string() const {
    return "(" + std::to_string(number) + "," + std::to_string(writer) + ")";
  }
};

/// S = Value × Version (Figure 4 line 1), with (V{}, (0,0)) initial.
template <class V>
struct basic_reg_state {
  using value_type = V;

  V value{};
  reg_version version{};

  friend bool operator==(const basic_reg_state&,
                         const basic_reg_state&) = default;
};

/// The default instantiation used by the register tests, benches and the
/// linearizability checkers.
using reg_state = basic_reg_state<reg_value>;

}  // namespace gqs
