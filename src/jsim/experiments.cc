/**
 * @file
 * Analog experiment implementations.
 */

#include "experiments.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "simulator.hh"

namespace supernpu {
namespace jsim {

ShiftRegister
buildShiftRegister(ClockRouting routing, double clock_period,
                   std::size_t bits)
{
    SUPERNPU_ASSERT(clock_period > 0 && bits > 0, "bad experiment");

    DeviceParams params;
    ShiftRegister sr;
    Circuit &circuit = sr.circuit;

    // Data source: one SFQ per clock period.
    JtlChain data_jtl = appendJtl(circuit, params, 3, "D");
    std::vector<double> data_times;
    for (std::size_t i = 0; i < bits; ++i)
        data_times.push_back(60e-12 + clock_period * (double)i);
    attachPulseInput(circuit, params, data_jtl.input, data_times);

    // Clock source, offset so each stage captures after its data.
    JtlChain clock_jtl = appendJtl(circuit, params, 3, "C");
    std::vector<double> clock_times;
    for (std::size_t i = 0; i < bits + 2; ++i) {
        clock_times.push_back(60e-12 + 12e-12 +
                              clock_period * (double)i);
    }
    attachPulseInput(circuit, params, clock_jtl.input, clock_times);
    const Splitter clock_split =
        appendSplitter(circuit, params, clock_jtl.output, "S");
    const JtlChain clock_a =
        appendJtlFrom(circuit, params, clock_split.outputA, 2, "KA");
    const JtlChain clock_b =
        appendJtlFrom(circuit, params, clock_split.outputB, 2, "KB");

    // The two stages with a regenerating JTL between them.
    const Dff stage1 = appendDff(circuit, params, DffParams{}, "F1");
    const Dff stage2 = appendDff(circuit, params, DffParams{}, "F2");
    circuit.addInductor(data_jtl.output, stage1.dataIn,
                        params.jtlInductance);
    const JtlChain mid =
        appendJtlFrom(circuit, params, stage1.output, 3, "M");
    circuit.addInductor(mid.output, stage2.dataIn,
                        params.jtlInductance);

    // Clock routing: the long branch reaches the far stage — which
    // stage is "far" is exactly the concurrent/counter distinction.
    const JtlChain clock_long =
        appendJtlFrom(circuit, params, clock_b.output, 4, "KL");
    if (routing == ClockRouting::Concurrent) {
        circuit.addInductor(clock_a.output, stage1.clockIn,
                            params.jtlInductance);
        circuit.addInductor(clock_long.output, stage2.clockIn,
                            params.jtlInductance);
    } else {
        circuit.addInductor(clock_a.output, stage2.clockIn,
                            params.jtlInductance);
        circuit.addInductor(clock_long.output, stage1.clockIn,
                            params.jtlInductance);
    }

    const JtlChain out =
        appendJtlFrom(circuit, params, stage2.output, 2, "O");
    sr.outputJunction = out.junctionIndices.back();
    sr.config.duration =
        60e-12 + clock_period * (double)(bits + 4) + 100e-12;
    return sr;
}

std::size_t
shiftRegisterOutputCount(ClockRouting routing, double clock_period,
                         std::size_t bits)
{
    const ShiftRegister sr = buildShiftRegister(routing, clock_period, bits);
    const TransientSimulator sim(sr.circuit, sr.config);
    return sim.run().switchCount(sr.outputJunction);
}

double
Margin::worstPercent() const
{
    return std::min(lowPercent, highPercent);
}

namespace {

/** One store-then-release trial of a DFF with scaled parameters. */
bool
dffWorks(const DffParams &dff_params)
{
    DeviceParams params;
    Circuit circuit;
    JtlChain data = appendJtl(circuit, params, 3, "D");
    attachPulseInput(circuit, params, data.input, {50e-12, 250e-12});
    JtlChain clock = appendJtl(circuit, params, 3, "C");
    attachPulseInput(circuit, params, clock.input,
                     {100e-12, 180e-12, 300e-12});
    const Dff dff = appendDff(circuit, params, dff_params, "F");
    circuit.addInductor(data.output, dff.dataIn, params.jtlInductance);
    circuit.addInductor(clock.output, dff.clockIn,
                        params.jtlInductance);
    const JtlChain out =
        appendJtlFrom(circuit, params, dff.output, 3, "O");

    TransientConfig config;
    config.duration = 380e-12;
    TransientSimulator sim(circuit, config);
    const TransientResult result = sim.run();
    // Two stores, two releases (the 180 ps clock finds no data), two
    // output pulses.
    return result.switchCount(dff.storeJunction) == 2 &&
           result.switchCount(dff.releaseJunction) == 2 &&
           result.switchCount(out.junctionIndices.back()) == 2;
}

DffParams
scaledDff(DffParameter parameter, double factor)
{
    DffParams params;
    switch (parameter) {
      case DffParameter::LoopBias:
        params.loopBias *= factor;
        break;
      case DffParameter::StorageInductance:
        params.storageInductance *= factor;
        break;
      case DffParameter::ReleaseIc:
        params.releaseIcScale *= factor;
        break;
    }
    return params;
}

} // namespace

Margin
dffParameterMargin(DffParameter parameter, double step_percent,
                   double max_percent)
{
    SUPERNPU_ASSERT(step_percent > 0 && max_percent >= step_percent,
                    "bad margin sweep");
    Margin margin;
    for (double pct = step_percent; pct <= max_percent;
         pct += step_percent) {
        if (!dffWorks(scaledDff(parameter, 1.0 + pct / 100.0)))
            break;
        margin.highPercent = pct;
    }
    for (double pct = step_percent; pct <= max_percent;
         pct += step_percent) {
        if (!dffWorks(scaledDff(parameter, 1.0 - pct / 100.0)))
            break;
        margin.lowPercent = pct;
    }
    return margin;
}

double
maxShiftClockGhz(ClockRouting routing, double start_ps, double step_ps,
                 std::size_t periods, std::size_t bits)
{
    double best_ghz = 0.0;
    for (std::size_t i = 0; i < periods; ++i) {
        const double period_ps = start_ps - step_ps * (double)i;
        if (period_ps <= 0)
            break;
        const std::size_t delivered = shiftRegisterOutputCount(
            routing, period_ps * 1e-12, bits);
        if (delivered == bits)
            best_ghz = 1e3 / period_ps;
        else if (best_ghz > 0.0)
            break; // first failure after a pass ends the sweep
    }
    return best_ghz;
}

} // namespace jsim
} // namespace supernpu
