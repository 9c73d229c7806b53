/// \file backoff.h
/// \brief Jittered exponential backoff, shared by handler quarantine retries
/// and the federation link's request retries and breaker probes.

#pragma once

#include <algorithm>

#include "common/rng.h"
#include "common/types.h"

namespace pipes {

/// The delay after `current`: `initial` (at least 1) when `current` is not
/// positive yet, else `current` x `multiplier` (at least 1x), capped at `max`
/// (at least 1). Deterministic — only the applied delay is jittered.
inline Duration GrowBackoff(Duration current, Duration initial,
                            double multiplier, Duration max) {
  if (current <= 0) return std::max<Duration>(1, initial);
  double next = static_cast<double>(current) * std::max(1.0, multiplier);
  return static_cast<Duration>(
      std::min(next, static_cast<double>(std::max<Duration>(1, max))));
}

/// `delay` scaled by a factor drawn from `rng` in [1 - jitter, 1 + jitter]
/// (jitter clamped to [0, 1]), floored at 1 and capped at `max` (at least 1),
/// so peers hit by one correlated fault do not retry in lockstep. Draws
/// nothing when jitter or `delay` is not positive; `delay` is then returned
/// floored at 1, without the cap.
inline Duration JitterBackoff(Duration delay, double jitter, Duration max,
                              Rng& rng) {
  jitter = std::clamp(jitter, 0.0, 1.0);
  if (jitter <= 0.0 || delay <= 0) return std::max<Duration>(delay, 1);
  double factor = rng.UniformDouble(1.0 - jitter, 1.0 + jitter);
  Duration jittered = std::max<Duration>(
      1, static_cast<Duration>(static_cast<double>(delay) * factor));
  return std::min(jittered, std::max<Duration>(1, max));
}

}  // namespace pipes
