/**
 * @file
 * Arrival model implementations.
 */

#include "arrival.hh"

#include <cmath>

#include "common/logging.hh"

namespace supernpu {
namespace serving {

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::OpenPoisson:
        return "poisson";
      case ArrivalKind::Bursty:
        return "bursty";
      case ArrivalKind::ClosedLoop:
        return "closed";
    }
    panic("bad arrival kind");
}

void
ArrivalConfig::check() const
{
    // Non-finite values compare false against every bound, so they
    // are rejected by name before the range checks.
    if (kind != ArrivalKind::ClosedLoop &&
        (!std::isfinite(ratePerSec) || ratePerSec <= 0.0))
        fatal("arrival rate must be positive and finite, got ",
              ratePerSec);
    if (kind == ArrivalKind::Bursty &&
        (!std::isfinite(meanOnSec) || !std::isfinite(meanOffSec) ||
         meanOnSec <= 0.0 || meanOffSec < 0.0)) {
        fatal("bursty phases need finite meanOnSec > 0 and "
              "meanOffSec >= 0, got ", meanOnSec, " and ", meanOffSec);
    }
    if (kind == ArrivalKind::ClosedLoop && clients < 1)
        fatal("closed loop needs at least one client");
    if (!std::isfinite(thinkSec) || thinkSec < 0.0)
        fatal("think time must be finite and non-negative, got ",
              thinkSec);
}

ArrivalProcess::ArrivalProcess(const ArrivalConfig &config,
                               std::uint64_t seed)
    : _cfg(config), _rng(seed)
{
    _cfg.check();
    if (_cfg.kind == ArrivalKind::Bursty)
        _phaseRemainingSec = expGap(1.0 / _cfg.meanOnSec);
}

double
ArrivalProcess::expGap(double rate_per_sec)
{
    SUPERNPU_ASSERT(rate_per_sec > 0.0, "bad exponential rate");
    // -log(1-u) with u in [0,1) avoids log(0).
    return -std::log(1.0 - _rng.uniform()) / rate_per_sec;
}

double
ArrivalProcess::nextGapSec()
{
    SUPERNPU_ASSERT(openLoop(), "closed-loop sources have no gaps");
    if (_cfg.kind == ArrivalKind::OpenPoisson)
        return expGap(_cfg.ratePerSec);

    // Bursty: Poisson at the boosted on-rate, silent while off. The
    // boost keeps the long-run average at ratePerSec.
    const double on_rate = _cfg.ratePerSec / _cfg.dutyCycle();
    double gap = 0.0;
    for (;;) {
        if (_onPhase) {
            const double next = expGap(on_rate);
            if (next <= _phaseRemainingSec) {
                _phaseRemainingSec -= next;
                return gap + next;
            }
            gap += _phaseRemainingSec;
            _phaseRemainingSec = expGap(1.0 / _cfg.meanOffSec);
            _onPhase = false;
        } else {
            gap += _phaseRemainingSec;
            _phaseRemainingSec = expGap(1.0 / _cfg.meanOnSec);
            _onPhase = true;
        }
    }
}

double
ArrivalProcess::thinkGapSec()
{
    if (_cfg.thinkSec <= 0.0)
        return 0.0;
    return expGap(1.0 / _cfg.thinkSec);
}

} // namespace serving
} // namespace supernpu
