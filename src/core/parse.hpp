// parse.hpp — textual format for fail-prone systems.
//
// Grammar (one declaration per line; '#' starts a comment):
//
//   system <n>
//   pattern crash={p, q, ...} fail={(p,q), (r,s), ...}
//
// Process ids are 0-based integers below n. Both clauses of a pattern are
// optional ("pattern" alone is the nothing-fails pattern) and may come in
// either order, but each at most once per line: a repeated clause is a
// parse_error, never a silent overwrite. Example — the
// paper's f1 over a=0, b=1, c=2, d=3:
//
//   system 4
//   pattern crash={3} fail={(0,2), (1,2), (2,1)}
//
// The reverse direction (format()) emits the same syntax, and
// parse(format(x)) == x.
#pragma once

#include <string>

#include "core/failure_pattern.hpp"

namespace gqs {

/// Thrown on malformed input, with a line number and reason.
class parse_error : public std::runtime_error {
 public:
  parse_error(int line, const std::string& reason)
      : std::runtime_error("line " + std::to_string(line) + ": " + reason),
        line_(line) {}
  int line() const noexcept { return line_; }

 private:
  int line_;
};

/// Parses the format above.
fail_prone_system parse_fail_prone_system(const std::string& text);

/// Renders a fail-prone system in the same format.
std::string format_fail_prone_system(const fail_prone_system& fps);

}  // namespace gqs
