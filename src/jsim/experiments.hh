/**
 * @file
 * Canned analog experiments on the JJ transient simulator.
 *
 * The headline experiment backs the paper's Fig. 7 at the analog
 * level: a two-stage shift register is clocked at increasing rates
 * under concurrent-flow and counter-flow clock routing, and the
 * maximum rate at which every stored bit still reaches the output is
 * measured from the junction switching events. Counter-flow routing
 * (required around feedback loops) tops out measurably below
 * concurrent-flow routing, the effect Eq. (1) models analytically.
 */

#ifndef SUPERNPU_JSIM_EXPERIMENTS_HH
#define SUPERNPU_JSIM_EXPERIMENTS_HH

#include <cstddef>

#include "cells.hh"

namespace supernpu {
namespace jsim {

/** Clock routing direction for the shift-register experiment. */
enum class ClockRouting
{
    Concurrent, ///< clock propagates in the data direction
    CounterFlow ///< clock propagates against the data direction
};

/**
 * The two-stage shift register of the Fig. 7 experiment, loaded with
 * `bits` ones at one clock period.
 */
struct ShiftRegister
{
    Circuit circuit;
    std::size_t outputJunction = 0; ///< last junction of the output JTL
    TransientConfig config;         ///< spans every bit plus settling
};

/** Build the shift register; see shiftRegisterOutputCount. */
ShiftRegister buildShiftRegister(ClockRouting routing,
                                 double clock_period, std::size_t bits);

/**
 * Run the two-stage shift register at one clock period and count how
 * many of `bits` stored ones reach the output.
 */
std::size_t shiftRegisterOutputCount(ClockRouting routing,
                                     double clock_period,
                                     std::size_t bits);

/**
 * Sweep the clock period downward and return the highest frequency
 * (GHz) at which all `bits` ones are still delivered. The sweep
 * covers `periods_ps` candidates from `start_ps` down in `step_ps`
 * decrements.
 */
double maxShiftClockGhz(ClockRouting routing, double start_ps = 24.0,
                        double step_ps = 2.0,
                        std::size_t periods = 9,
                        std::size_t bits = 4);

/**
 * Operating-margin analysis — the standard SFQ design metric: how
 * far a parameter can move from nominal before the cell stops
 * working. The margin is quoted as a +/- percentage of the nominal
 * value.
 */
struct Margin
{
    double lowPercent = 0.0;  ///< largest tolerated decrease, %
    double highPercent = 0.0; ///< largest tolerated increase, %

    /** The smaller of the two sides (the quoted margin). */
    double worstPercent() const;
};

/** Parameters the DFF margin sweep can exercise. */
enum class DffParameter
{
    LoopBias,         ///< DC bias into the release node
    StorageInductance,///< quantizing loop inductance
    ReleaseIc,        ///< release junction critical current
};

/**
 * Measure the DFF's operating margin on one parameter by scaling it
 * away from nominal in `step_percent` increments (up to
 * `max_percent`) until the store-then-release pattern fails.
 */
Margin dffParameterMargin(DffParameter parameter,
                          double step_percent = 10.0,
                          double max_percent = 60.0);

} // namespace jsim
} // namespace supernpu

#endif // SUPERNPU_JSIM_EXPERIMENTS_HH
