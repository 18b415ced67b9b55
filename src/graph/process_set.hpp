// process_set.hpp — fixed-capacity set of process identifiers.
//
// A process set is a fixed-width multi-word bitset: `basic_process_set<W>`
// packs W 64-bit words, so all set algebra is O(W) word operations with no
// allocation, and iteration advances by per-word countr_zero. The library
// alias `process_set` uses W = 4 (capacity 256 processes); every consumer
// is written against the capacity-agnostic surface (`words()`,
// `from_words`, `for_each_word`, `word_count`, `max_processes`) so raising
// the alias width is a one-line change.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>

namespace gqs {

/// Identifier of a process. Processes of an n-process system are 0..n-1.
using process_id = std::uint32_t;

/// A set of processes, represented as W 64-bit words (capacity 64·W).
///
/// The set does not know the system size n; operations like complement are
/// therefore expressed relative to an explicit universe
/// (see basic_process_set::full and complement_in).
template <std::size_t W>
class basic_process_set {
  static_assert(W >= 1, "basic_process_set needs at least one word");

 public:
  using word_type = std::uint64_t;

  /// Number of 64-bit words backing the set.
  static constexpr std::size_t word_count = W;

  /// Maximum number of processes representable.
  static constexpr process_id max_processes =
      static_cast<process_id>(W * 64);

  /// Words needed to cover ids 0..n-1 (⌈n/64⌉; words_for(0) == 0). The
  /// prefix-bounded operations below take this as their word budget so
  /// small-n algebra touches only the words that can be populated.
  static constexpr std::size_t words_for(process_id n) noexcept {
    return (static_cast<std::size_t>(n) + 63) / 64;
  }

  constexpr basic_process_set() noexcept = default;

  /// Constructs a set from an explicit list of members.
  constexpr basic_process_set(std::initializer_list<process_id> members) {
    for (process_id p : members) insert(p);
  }

  /// Builds a set from its word representation, low word first. Missing
  /// trailing words are zero; supplying more than W words throws.
  static constexpr basic_process_set from_words(
      std::initializer_list<word_type> ws) {
    return from_words(std::span<const word_type>(ws.begin(), ws.size()));
  }
  static constexpr basic_process_set from_words(
      std::span<const word_type> ws) {
    if (ws.size() > W)
      throw std::out_of_range("process_set::from_words: " +
                              std::to_string(ws.size()) + " words exceed " +
                              std::to_string(W) + "-word capacity");
    basic_process_set s;
    for (std::size_t i = 0; i < ws.size(); ++i) s.bits_[i] = ws[i];
    return s;
  }

  /// The set {0, 1, ..., n-1}.
  static constexpr basic_process_set full(process_id n) {
    check_id_bound(n);
    basic_process_set s;
    std::size_t i = 0;
    for (process_id left = n; left > 0; ++i) {
      if (left >= 64) {
        s.bits_[i] = ~word_type{0};
        left -= 64;
      } else {
        s.bits_[i] = (word_type{1} << left) - 1;
        left = 0;
      }
    }
    return s;
  }

  /// The singleton {p}.
  static constexpr basic_process_set singleton(process_id p) {
    check_id(p);
    basic_process_set s;
    s.bits_[p / 64] = word_type{1} << (p % 64);
    return s;
  }

  /// The words backing the set, low word first.
  constexpr std::span<const word_type, W> words() const noexcept {
    return std::span<const word_type, W>(bits_);
  }

  /// Word i of the representation (members 64·i .. 64·i+63).
  constexpr word_type word(std::size_t i) const noexcept { return bits_[i]; }

  /// Calls f(word_index, word_value) for every word, low word first.
  template <typename F>
  constexpr void for_each_word(F&& f) const {
    for (std::size_t i = 0; i < W; ++i) f(i, bits_[i]);
  }

  constexpr bool empty() const noexcept {
    for (word_type w : bits_)
      if (w != 0) return false;
    return true;
  }

  constexpr int size() const noexcept {
    int total = 0;
    for (word_type w : bits_) total += std::popcount(w);
    return total;
  }

  /// Prefix-bounded population count over the first nw words. Callers
  /// that sort or compare many sets by cardinality should hoist this out
  /// of the comparator (decorate-sort): at W > 1 the per-comparison
  /// popcounts, not the word loops, dominate the width cost.
  constexpr int size(std::size_t nw) const noexcept {
    if (nw == 1) return std::popcount(bits_[0]);
    int total = 0;
    for (std::size_t i = 0; i < nw; ++i) total += std::popcount(bits_[i]);
    return total;
  }

  constexpr bool contains(process_id p) const {
    check_id(p);
    return test(p);
  }

  /// Unchecked membership test. Precondition: p < max_processes. The
  /// bounds-checked spelling is contains(); hot paths that have already
  /// validated p (e.g. the simulator's per-event liveness probes) use this
  /// to skip the branch.
  constexpr bool test(process_id p) const noexcept {
    return (bits_[p / 64] >> (p % 64)) & 1u;
  }

  constexpr void insert(process_id p) {
    check_id(p);
    bits_[p / 64] |= word_type{1} << (p % 64);
  }

  constexpr void erase(process_id p) {
    check_id(p);
    bits_[p / 64] &= ~(word_type{1} << (p % 64));
  }

  constexpr bool intersects(const basic_process_set& other) const noexcept {
    for (std::size_t i = 0; i < W; ++i)
      if ((bits_[i] & other.bits_[i]) != 0) return true;
    return false;
  }

  constexpr bool is_subset_of(const basic_process_set& other) const noexcept {
    for (std::size_t i = 0; i < W; ++i)
      if ((bits_[i] & ~other.bits_[i]) != 0) return false;
    return true;
  }

  constexpr bool is_superset_of(const basic_process_set& other)
      const noexcept {
    return other.is_subset_of(*this);
  }

  /// Union.
  constexpr basic_process_set operator|(const basic_process_set& o)
      const noexcept {
    basic_process_set r = *this;
    r |= o;
    return r;
  }
  /// Intersection.
  constexpr basic_process_set operator&(const basic_process_set& o)
      const noexcept {
    basic_process_set r = *this;
    r &= o;
    return r;
  }
  /// Difference.
  constexpr basic_process_set operator-(const basic_process_set& o)
      const noexcept {
    basic_process_set r = *this;
    r -= o;
    return r;
  }
  constexpr basic_process_set& operator|=(const basic_process_set& o)
      noexcept {
    for (std::size_t i = 0; i < W; ++i) bits_[i] |= o.bits_[i];
    return *this;
  }
  constexpr basic_process_set& operator&=(const basic_process_set& o)
      noexcept {
    for (std::size_t i = 0; i < W; ++i) bits_[i] &= o.bits_[i];
    return *this;
  }
  constexpr basic_process_set& operator-=(const basic_process_set& o)
      noexcept {
    for (std::size_t i = 0; i < W; ++i) bits_[i] &= ~o.bits_[i];
    return *this;
  }

  /// Complement relative to the universe {0..n-1}.
  constexpr basic_process_set complement_in(process_id n) const {
    return full(n) - *this;
  }

  // ---- prefix-bounded algebra ----
  //
  // Each variant is the corresponding full-width operation restricted to
  // the first `nw` words (members 0 .. 64·nw − 1); words at and beyond nw
  // are neither read nor written. Hot loops whose sets live inside a known
  // universe {0..n-1} pass words_for(n), so an n ≤ 64 system pays
  // single-word cost regardless of W. Sound whenever every operand keeps
  // its members below 64·nw — true by construction for sets derived from
  // full(n), singleton(p < n) and each other.

  // The nw == 1 branch in each method below is not a micro-optimisation
  // footnote: it turns the runtime-bounded word loop into the exact
  // straight-line code the W == 1 instantiation compiles to, which is what
  // keeps n ≤ 64 hot paths (SCC/BFS inner loops) at single-word cost.

  /// empty() over the first nw words.
  constexpr bool empty(std::size_t nw) const noexcept {
    if (nw == 1) return bits_[0] == 0;
    for (std::size_t i = 0; i < nw; ++i)
      if (bits_[i] != 0) return false;
    return true;
  }

  /// intersects() over the first nw words.
  constexpr bool intersects(const basic_process_set& other,
                            std::size_t nw) const noexcept {
    if (nw == 1) return (bits_[0] & other.bits_[0]) != 0;
    for (std::size_t i = 0; i < nw; ++i)
      if ((bits_[i] & other.bits_[i]) != 0) return true;
    return false;
  }

  /// is_subset_of() over the first nw words.
  constexpr bool is_subset_of(const basic_process_set& other,
                              std::size_t nw) const noexcept {
    if (nw == 1) return (bits_[0] & ~other.bits_[0]) == 0;
    for (std::size_t i = 0; i < nw; ++i)
      if ((bits_[i] & ~other.bits_[i]) != 0) return false;
    return true;
  }

  /// operator|= over the first nw words.
  constexpr void or_with(const basic_process_set& o,
                         std::size_t nw) noexcept {
    if (nw == 1) {
      bits_[0] |= o.bits_[0];
      return;
    }
    for (std::size_t i = 0; i < nw; ++i) bits_[i] |= o.bits_[i];
  }

  /// operator&= over the first nw words (high words are left untouched —
  /// the caller's invariant is that they are zero in both operands).
  constexpr void and_with(const basic_process_set& o,
                          std::size_t nw) noexcept {
    if (nw == 1) {
      bits_[0] &= o.bits_[0];
      return;
    }
    for (std::size_t i = 0; i < nw; ++i) bits_[i] &= o.bits_[i];
  }

  /// operator-= over the first nw words.
  constexpr void subtract(const basic_process_set& o,
                          std::size_t nw) noexcept {
    if (nw == 1) {
      bits_[0] &= ~o.bits_[0];
      return;
    }
    for (std::size_t i = 0; i < nw; ++i) bits_[i] &= ~o.bits_[i];
  }

  constexpr bool operator==(const basic_process_set&) const noexcept =
      default;

  /// Total order (by the 64·W-bit value, high word most significant); lets
  /// sets key std::map / sorting. At W == 1 this is exactly the mask-value
  /// order of the single-word original.
  constexpr bool operator<(const basic_process_set& o) const noexcept {
    for (std::size_t i = W; i-- > 0;)
      if (bits_[i] != o.bits_[i]) return bits_[i] < o.bits_[i];
    return false;
  }

  /// The smallest member. Throws std::out_of_range on an empty set.
  constexpr process_id first() const {
    for (std::size_t i = 0; i < W; ++i)
      if (bits_[i] != 0)
        return static_cast<process_id>(i * 64 + std::countr_zero(bits_[i]));
    throw std::out_of_range("process_set::first on empty set (capacity " +
                            std::to_string(max_processes) + ")");
  }

  /// Removes and returns the smallest member, scanning only the first nw
  /// words. The combined pop clears the bit with w & (w − 1) — no variable
  /// shift, no variable word index — which is what lets the optimizer keep
  /// the whole set in registers inside first()/erase()-style drain loops
  /// (the split calls defeat value-range propagation when nw is a runtime
  /// value). Throws std::out_of_range if the prefix is empty.
  constexpr process_id take_first(std::size_t nw) {
    if (nw == 1) {
      const word_type w = bits_[0];
      if (w == 0)
        throw std::out_of_range(
            "process_set::take_first on empty set (capacity " +
            std::to_string(max_processes) + ")");
      bits_[0] = w & (w - 1);
      return static_cast<process_id>(std::countr_zero(w));
    }
    for (std::size_t i = 0; i < nw; ++i)
      if (bits_[i] != 0) {
        const word_type w = bits_[i];
        bits_[i] = w & (w - 1);
        return static_cast<process_id>(i * 64 + std::countr_zero(w));
      }
    throw std::out_of_range(
        "process_set::take_first on empty set (capacity " +
        std::to_string(max_processes) + ")");
  }

  /// Forward iterator over members in increasing id order.
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = process_id;
    using difference_type = std::ptrdiff_t;
    using pointer = const process_id*;
    using reference = process_id;

    constexpr iterator() noexcept = default;
    constexpr explicit iterator(const std::array<word_type, W>& bits) noexcept
        : rest_(bits), cur_(0) {
      settle();
    }

    constexpr process_id operator*() const noexcept {
      return static_cast<process_id>(cur_ * 64 +
                                     std::countr_zero(rest_[cur_]));
    }
    constexpr iterator& operator++() noexcept {
      rest_[cur_] &= rest_[cur_] - 1;  // clear lowest set bit
      settle();
      return *this;
    }
    constexpr iterator operator++(int) noexcept {
      iterator tmp = *this;
      ++*this;
      return tmp;
    }
    constexpr bool operator==(const iterator&) const noexcept = default;

   private:
    constexpr void settle() noexcept {
      while (cur_ < W && rest_[cur_] == 0) ++cur_;
    }

    std::array<word_type, W> rest_{};
    std::size_t cur_ = W;
  };

  constexpr iterator begin() const noexcept { return iterator(bits_); }
  constexpr iterator end() const noexcept { return iterator(); }

  /// Renders as e.g. "{0, 2, 3}"; maximal runs of three or more
  /// consecutive ids compress to ranges ("{0..127}"), so counterexample
  /// dumps of large sets stay readable. Processes can be named by callers
  /// formatting members themselves.
  std::string to_string() const {
    std::string out = "{";
    bool first_member = true;
    auto emit = [&](process_id lo, process_id hi) {
      if (!first_member) out += ", ";
      first_member = false;
      if (hi == lo) {
        out += std::to_string(lo);
      } else if (hi == lo + 1) {
        out += std::to_string(lo) + ", " + std::to_string(hi);
      } else {
        out += std::to_string(lo) + ".." + std::to_string(hi);
      }
    };
    bool in_run = false;
    process_id lo = 0, hi = 0;
    for (process_id p : *this) {
      if (in_run && p == hi + 1) {
        hi = p;
        continue;
      }
      if (in_run) emit(lo, hi);
      lo = hi = p;
      in_run = true;
    }
    if (in_run) emit(lo, hi);
    out += "}";
    return out;
  }

 private:
  static constexpr void check_id(process_id p) {
    if (p >= max_processes)
      throw std::out_of_range("process id " + std::to_string(p) +
                              " exceeds capacity (" +
                              std::to_string(max_processes) + ")");
  }
  static constexpr void check_id_bound(process_id n) {
    if (n > max_processes)
      throw std::out_of_range("system size " + std::to_string(n) +
                              " exceeds capacity (" +
                              std::to_string(max_processes) + ")");
  }

  std::array<word_type, W> bits_{};
};

/// The library-wide process-set type: capacity 256 processes. Everything
/// downstream (digraph adjacency, epoch tables, solver domains, strategy
/// load vectors) sizes itself from process_set::max_processes.
using process_set = basic_process_set<4>;

/// Hash support so process sets can key unordered containers.
template <std::size_t W>
struct basic_process_set_hash {
  std::size_t operator()(const basic_process_set<W>& s) const noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    s.for_each_word([&](std::size_t, std::uint64_t w) {
      h ^= w;
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
    });
    return static_cast<std::size_t>(h);
  }
};

using process_set_hash = basic_process_set_hash<process_set::word_count>;

}  // namespace gqs
