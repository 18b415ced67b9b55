#include "core/parse.hpp"

#include <cctype>
#include <optional>
#include <sstream>
#include <vector>

namespace gqs {

namespace {

/// Minimal recursive-descent scanner over one line.
class line_scanner {
 public:
  line_scanner(std::string text, int line_number)
      : text_(std::move(text)), line_(line_number) {}

  void skip_spaces() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(
                                      text_[pos_])))
      ++pos_;
  }

  bool at_end() {
    skip_spaces();
    return pos_ >= text_.size();
  }

  bool try_consume(const std::string& word) {
    skip_spaces();
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  void expect(const std::string& word) {
    if (!try_consume(word))
      throw parse_error(line_, "expected '" + word + "' near '" +
                                   text_.substr(pos_, 12) + "'");
  }

  unsigned parse_number() {
    skip_spaces();
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_])))
      throw parse_error(line_, "expected a number");
    unsigned value = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      value = value * 10 + static_cast<unsigned>(text_[pos_] - '0');
      if (value > 100000) throw parse_error(line_, "number too large");
      ++pos_;
    }
    return value;
  }

  int line() const noexcept { return line_; }

 private:
  std::string text_;
  std::size_t pos_ = 0;
  int line_;
};

/// Parses "{p, q, ...}" over an n-process system. Ids are range-checked
/// here, before they reach process_set (whose own capacity check would
/// throw without a line number).
process_set parse_process_set(line_scanner& s, process_id n) {
  s.expect("{");
  process_set out;
  if (s.try_consume("}")) return out;
  while (true) {
    const process_id p = s.parse_number();
    if (p >= n) {
      std::string why = "process id ";
      why += std::to_string(p);
      why += " outside system of size ";
      why += std::to_string(n);
      throw parse_error(s.line(), why);
    }
    out.insert(p);
    if (s.try_consume("}")) return out;
    s.expect(",");
  }
}

std::vector<edge> parse_edge_set(line_scanner& s) {
  s.expect("{");
  std::vector<edge> out;
  if (s.try_consume("}")) return out;
  while (true) {
    s.expect("(");
    const process_id from = s.parse_number();
    s.expect(",");
    const process_id to = s.parse_number();
    s.expect(")");
    out.push_back({from, to});
    if (s.try_consume("}")) return out;
    s.expect(",");
  }
}

std::string strip_comment(const std::string& raw) {
  const auto hash = raw.find('#');
  return hash == std::string::npos ? raw : raw.substr(0, hash);
}

}  // namespace

fail_prone_system parse_fail_prone_system(const std::string& text) {
  std::istringstream input(text);
  std::string raw;
  int line_number = 0;
  std::optional<process_id> n;
  std::vector<failure_pattern> patterns;

  while (std::getline(input, raw)) {
    ++line_number;
    line_scanner s(strip_comment(raw), line_number);
    if (s.at_end()) continue;
    if (s.try_consume("system")) {
      if (n) throw parse_error(line_number, "duplicate 'system' declaration");
      const unsigned size = s.parse_number();
      if (size == 0 || size > process_set::max_processes)
        throw parse_error(line_number,
                          "system size out of range [1, " +
                              std::to_string(process_set::max_processes) +
                              "]");
      n = static_cast<process_id>(size);
      if (!s.at_end())
        throw parse_error(line_number, "trailing text after system size");
      continue;
    }
    if (s.try_consume("pattern")) {
      if (!n)
        throw parse_error(line_number,
                          "'system <n>' must precede the first pattern");
      std::optional<process_set> crash;
      std::optional<std::vector<edge>> fail;
      while (!s.at_end()) {
        if (s.try_consume("crash")) {
          if (crash) throw parse_error(line_number, "repeated 'crash=' clause");
          s.expect("=");
          crash = parse_process_set(s, *n);
        } else if (s.try_consume("fail")) {
          if (fail) throw parse_error(line_number, "repeated 'fail=' clause");
          s.expect("=");
          fail = parse_edge_set(s);
        } else {
          throw parse_error(line_number,
                            "expected 'crash=' or 'fail=' clause");
        }
      }
      try {
        patterns.emplace_back(*n, crash.value_or(process_set{}),
                              fail.value_or(std::vector<edge>{}));
      } catch (const std::invalid_argument& bad) {
        throw parse_error(line_number, bad.what());
      }
      continue;
    }
    throw parse_error(line_number, "expected 'system' or 'pattern'");
  }
  if (!n) throw parse_error(line_number, "missing 'system <n>' declaration");
  return fail_prone_system(*n, std::move(patterns));
}

std::string format_fail_prone_system(const fail_prone_system& fps) {
  std::ostringstream out;
  out << "system " << fps.system_size() << "\n";
  for (const failure_pattern& f : fps) {
    out << "pattern";
    if (!f.crashable().empty()) {
      out << " crash={";
      bool first = true;
      for (process_id p : f.crashable()) {
        if (!first) out << ", ";
        out << p;
        first = false;
      }
      out << "}";
    }
    const auto edges = f.faulty_channels().edges();
    if (!edges.empty()) {
      out << " fail={";
      bool first = true;
      for (const edge& e : edges) {
        if (!first) out << ", ";
        out << "(" << e.from << "," << e.to << ")";
        first = false;
      }
      out << "}";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace gqs
