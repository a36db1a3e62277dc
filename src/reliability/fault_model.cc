/**
 * @file
 * Fault-schedule generation: one seeded RNG stream per (chip, kind),
 * merged into a canonically ordered event list.
 */

#include "fault_model.hh"

#include <algorithm>
#include <cmath>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"

namespace supernpu {
namespace reliability {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::PulseDrop:
        return "pulse-drop";
      case FaultKind::FluxTrap:
        return "flux-trap";
      case FaultKind::ClockSkew:
        return "clock-skew";
      case FaultKind::LinkGlitch:
        return "link-glitch";
    }
    panic("bad fault kind");
}

const char *
faultArrivalName(FaultArrival arrival)
{
    switch (arrival) {
      case FaultArrival::Poisson:
        return "poisson";
      case FaultArrival::Burst:
        return "burst";
    }
    panic("bad fault arrival");
}

void
FaultScheduleConfig::check() const
{
    if (horizonSec <= 0)
        fatal("fault schedule needs a positive horizon");
    if (chips < 1)
        fatal("fault schedule needs at least one chip");
    if (pulseDropRatePerSec < 0 || fluxTrapRatePerSec < 0 ||
        clockSkewRatePerSec < 0 || linkGlitchRatePerSec < 0)
        fatal("fault rates must be non-negative");
    if (fluxTrapDerate < 1.0 || clockSkewDerate < 1.0)
        fatal("fault derates are service multipliers and must be >= 1");
    if (clockSkewDurationSec < 0 || linkGlitchDelaySec < 0)
        fatal("fault durations must be non-negative");
    if (arrival == FaultArrival::Burst &&
        (burstMeanOnSec <= 0 || burstMeanOffSec <= 0))
        fatal("burst arrivals need positive on/off phase means");
}

namespace {

/** Exponential variate with the given rate. */
double
expGap(Rng &rng, double rate_per_sec)
{
    double u = rng.uniform();
    if (u < 1e-300)
        u = 1e-300;
    return -std::log(u) / rate_per_sec;
}

/**
 * Event times of one (chip, kind) stream in [0, horizon): Poisson at
 * `rate`, or — for transient kinds under Burst arrivals — an on/off
 * modulated Poisson whose on-rate is scaled by 1/duty so the
 * long-run rate still equals `rate`.
 */
std::vector<double>
streamTimes(Rng &rng, const FaultScheduleConfig &cfg, double rate,
            bool bursty)
{
    std::vector<double> times;
    if (rate <= 0)
        return times;

    if (!bursty) {
        for (double t = expGap(rng, rate); t < cfg.horizonSec;
             t += expGap(rng, rate))
            times.push_back(t);
        return times;
    }

    // On/off modulation: arrivals only inside on-phases, with the
    // on-rate scaled by 1/duty so the long-run rate is unchanged.
    const double duty =
        cfg.burstMeanOnSec / (cfg.burstMeanOnSec + cfg.burstMeanOffSec);
    const double on_rate = rate / duty;
    double t = 0.0;
    double on_end = expGap(rng, 1.0 / cfg.burstMeanOnSec);
    while (t < cfg.horizonSec) {
        t += expGap(rng, on_rate);
        if (t >= on_end) {
            // The arrival fell past the on-phase: sit out the off
            // phase and resume inside the next on-phase.
            t = on_end + expGap(rng, 1.0 / cfg.burstMeanOffSec);
            on_end = t + expGap(rng, 1.0 / cfg.burstMeanOnSec);
            continue;
        }
        if (t < cfg.horizonSec)
            times.push_back(t);
    }
    return times;
}

/** Canonical event order: (time, chip, kind). */
bool
eventBefore(const FaultEvent &a, const FaultEvent &b)
{
    if (a.timeSec != b.timeSec)
        return a.timeSec < b.timeSec;
    if (a.chip != b.chip)
        return a.chip < b.chip;
    return (int)a.kind < (int)b.kind;
}

} // namespace

FaultSchedule
FaultSchedule::generate(const FaultScheduleConfig &config)
{
    config.check();

    FaultSchedule schedule;
    schedule._config = config;

    struct KindSpec
    {
        FaultKind kind;
        double rate;
        bool bursty;
    };
    const KindSpec kinds[faultKindCount] = {
        {FaultKind::PulseDrop, config.pulseDropRatePerSec,
         config.arrival == FaultArrival::Burst},
        {FaultKind::FluxTrap, config.fluxTrapRatePerSec, false},
        {FaultKind::ClockSkew, config.clockSkewRatePerSec,
         config.arrival == FaultArrival::Burst},
        {FaultKind::LinkGlitch, config.linkGlitchRatePerSec,
         config.arrival == FaultArrival::Burst},
    };

    for (int chip = 0; chip < config.chips; ++chip) {
        for (int k = 0; k < faultKindCount; ++k) {
            const KindSpec &spec = kinds[k];
            // One independent stream per (chip, kind): adding chips
            // or kinds never perturbs another stream's sequence.
            Rng rng(streamSeed(config.seed,
                               (std::uint64_t)chip * faultKindCount +
                                   (std::uint64_t)k));
            for (double t :
                 streamTimes(rng, config, spec.rate, spec.bursty)) {
                FaultEvent event;
                event.timeSec = t;
                event.kind = spec.kind;
                event.chip = chip;
                switch (spec.kind) {
                  case FaultKind::PulseDrop:
                    break;
                  case FaultKind::FluxTrap:
                    event.magnitude = config.fluxTrapDerate;
                    event.trapTarget =
                        rng.uniform() < 0.5
                            ? FluxTrapTarget::PeColumn
                            : FluxTrapTarget::BufferChunk;
                    break;
                  case FaultKind::ClockSkew:
                    event.magnitude = config.clockSkewDerate;
                    event.durationSec = config.clockSkewDurationSec;
                    break;
                  case FaultKind::LinkGlitch:
                    event.magnitude = config.linkGlitchDelaySec;
                    break;
                }
                schedule._events.push_back(event);
            }
        }
    }

    std::sort(schedule._events.begin(), schedule._events.end(),
              eventBefore);
    return schedule;
}

FaultSchedule
FaultSchedule::fromEvents(const FaultScheduleConfig &config,
                          std::vector<FaultEvent> events)
{
    config.check();
    for (const FaultEvent &event : events) {
        SUPERNPU_ASSERT(event.chip >= 0 && event.chip < config.chips,
                        "fault event on chip ", event.chip,
                        " outside [0, ", config.chips, ")");
        SUPERNPU_ASSERT(event.timeSec >= 0, "fault before t = 0");
    }
    FaultSchedule schedule;
    schedule._config = config;
    schedule._events = std::move(events);
    std::sort(schedule._events.begin(), schedule._events.end(),
              eventBefore);
    return schedule;
}

std::size_t
FaultSchedule::count(FaultKind kind, int chip) const
{
    std::size_t n = 0;
    for (const FaultEvent &event : _events) {
        if (event.kind == kind && event.chip == chip)
            ++n;
    }
    return n;
}

std::uint64_t
FaultSchedule::hash() const
{
    if (_events.empty())
        return 0; // the clean-run SimKey value
    std::uint64_t hash = kFnv1aOffset;
    fnv1aWord(hash, (std::uint64_t)_events.size());
    for (const FaultEvent &event : _events) {
        fnv1aDouble(hash, event.timeSec);
        fnv1aWord(hash, (std::uint64_t)event.kind);
        fnv1aWord(hash, (std::uint64_t)event.chip);
        fnv1aDouble(hash, event.magnitude);
        fnv1aDouble(hash, event.durationSec);
        fnv1aWord(hash, (std::uint64_t)event.trapTarget);
    }
    return hash;
}

} // namespace reliability
} // namespace supernpu
