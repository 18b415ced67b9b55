#include "core/random_systems.hpp"

#include <stdexcept>

#include "core/sampling.hpp"

namespace gqs {

namespace {

/// One pattern, with the crash and channel coins built once by the caller.
failure_pattern draw_pattern(const random_system_params& params,
                             const sampling::bernoulli& crash,
                             const sampling::bernoulli& chan,
                             std::mt19937_64& rng) {
  if (params.n == 0 || params.n > process_set::max_processes)
    throw std::invalid_argument("random_failure_pattern: bad n");
  process_set crashed;
  for (process_id p = 0; p < params.n; ++p)
    if (crash(rng)) crashed.insert(p);
  if (params.keep_one_correct && crashed == process_set::full(params.n)) {
    std::uniform_int_distribution<process_id> pick(0, params.n - 1);
    crashed.erase(pick(rng));
  }

  const process_set correct = crashed.complement_in(params.n);
  std::vector<process_set> faulty(params.n);
  for (process_id u : correct)
    for (process_id v : correct)
      if (u != v && chan(rng)) faulty[u].insert(v);
  return failure_pattern::from_rows(params.n, crashed, std::move(faulty));
}

}  // namespace

failure_pattern random_failure_pattern(const random_system_params& params,
                                       std::mt19937_64& rng) {
  return draw_pattern(params, sampling::bernoulli(params.crash_probability),
                      sampling::bernoulli(params.channel_fail_probability),
                      rng);
}

fail_prone_system random_fail_prone_system(const random_system_params& params,
                                           std::mt19937_64& rng) {
  const sampling::bernoulli crash(params.crash_probability);
  const sampling::bernoulli chan(params.channel_fail_probability);
  fail_prone_system fps(params.n);
  for (int i = 0; i < params.patterns; ++i)
    fps.add(draw_pattern(params, crash, chan, rng));
  return fps;
}

random_gqs_result random_gqs_from(
    const std::function<fail_prone_system()>& source, int max_attempts) {
  random_gqs_result result;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    fail_prone_system fps = source();
    ++result.attempts;
    if (auto witness = find_gqs(fps)) {
      result.witness = std::move(witness);
      return result;
    }
    ++result.rejected;
  }
  result.exhausted = true;
  return result;
}

random_gqs_result random_gqs(const random_system_params& params,
                             std::mt19937_64& rng, int max_attempts) {
  return random_gqs_from(
      [&] { return random_fail_prone_system(params, rng); }, max_attempts);
}

}  // namespace gqs
