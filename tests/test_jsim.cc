/**
 * @file
 * Tests for the Josephson-junction transient simulator: linear
 * algebra, netlist construction, and the analog behaviour of the
 * demonstration circuits (JTL, splitter, DFF).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <utility>

#include "jsim/cells.hh"
#include "jsim/circuit.hh"
#include "jsim/experiments.hh"
#include "jsim/linalg.hh"
#include "jsim/simulator.hh"

namespace supernpu {
namespace jsim {
namespace {

// --- linalg ----------------------------------------------------------

TEST(Linalg, SolvesIdentity)
{
    DenseMatrix eye(3, 3);
    for (std::size_t i = 0; i < 3; ++i)
        eye.at(i, i) = 1.0;
    LuFactorization lu(eye);
    std::vector<double> b = {1.0, 2.0, 3.0};
    std::vector<double> work;
    lu.solveInPlace(b, work);
    EXPECT_DOUBLE_EQ(b[0], 1.0);
    EXPECT_DOUBLE_EQ(b[1], 2.0);
    EXPECT_DOUBLE_EQ(b[2], 3.0);
}

TEST(Linalg, SolvesWithPivoting)
{
    // Leading zero forces a row swap.
    DenseMatrix m(2, 2);
    m.at(0, 0) = 0.0;
    m.at(0, 1) = 1.0;
    m.at(1, 0) = 2.0;
    m.at(1, 1) = 1.0;
    LuFactorization lu(m);
    std::vector<double> b = {3.0, 5.0};
    std::vector<double> work;
    lu.solveInPlace(b, work); // x = (1, 3)
    EXPECT_NEAR(b[0], 1.0, 1e-12);
    EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(Linalg, ResidualOfRandomSystem)
{
    const std::size_t n = 12;
    DenseMatrix m(n, n);
    std::vector<double> x_true(n);
    // Deterministic well-conditioned matrix.
    for (std::size_t r = 0; r < n; ++r) {
        x_true[r] = (double)r - 5.0;
        for (std::size_t c = 0; c < n; ++c)
            m.at(r, c) = (r == c) ? 10.0 : std::sin((double)(r * n + c));
    }
    std::vector<double> b(n, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c)
            b[r] += m.at(r, c) * x_true[c];
    }
    LuFactorization lu(m);
    std::vector<double> work;
    lu.solveInPlace(b, work);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(b[i], x_true[i], 1e-9);
}

TEST(LinalgDeath, SingularMatrixPanics)
{
    DenseMatrix z(2, 2);
    EXPECT_DEATH({ LuFactorization lu(z); }, "singular");
}

// --- circuit construction --------------------------------------------

TEST(Circuit, GroundPreExists)
{
    Circuit c;
    EXPECT_EQ(c.nodeCount(), 1u);
    EXPECT_EQ(c.addNode(), 1u);
    EXPECT_EQ(c.addNode(), 2u);
    EXPECT_EQ(c.nodeCount(), 3u);
}

TEST(Circuit, JunctionLookupByLabel)
{
    Circuit c;
    const NodeId n = c.addNode();
    c.addJunction("J1", n, ground, 1e-4, 8.0, 4e-14);
    c.addJunction("J2", n, ground, 1e-4, 8.0, 4e-14);
    EXPECT_EQ(c.junctionIndex("J2"), 1u);
    EXPECT_DEATH((void)c.junctionIndex("nope"), "no junction");
}

TEST(Circuit, TotalBiasCurrent)
{
    Circuit c;
    const NodeId n = c.addNode();
    c.addBias(n, 70e-6);
    c.addBias(n, 30e-6);
    EXPECT_NEAR(c.totalBiasCurrent(), 100e-6, 1e-18);
}

TEST(Circuit, NetlistDumpListsEveryElement)
{
    DeviceParams params;
    Circuit circuit;
    const JtlChain chain = appendJtl(circuit, params, 2, "J");
    attachPulseInput(circuit, params, chain.input, {10e-12});
    const std::string netlist = circuit.dumpNetlist();
    EXPECT_NE(netlist.find("BJ0"), std::string::npos);
    EXPECT_NE(netlist.find("BJ1"), std::string::npos);
    EXPECT_NE(netlist.find("ic=100.0uA"), std::string::npos);
    EXPECT_NE(netlist.find("pH"), std::string::npos);  // the JTL L
    EXPECT_NE(netlist.find("I"), std::string::npos);   // bias rows
    EXPECT_NE(netlist.find("w=6.0ps"), std::string::npos); // pulse
}

TEST(CircuitDeath, RejectsUnknownNodes)
{
    Circuit c;
    EXPECT_DEATH(c.addInductor(5, ground, 1e-12), "unknown node");
    EXPECT_DEATH(c.addJunction("J", 7, ground, 1e-4, 8.0, 4e-14),
                 "unknown node");
}

// --- JTL behaviour ----------------------------------------------------

struct JtlFixture
{
    DeviceParams params;
    Circuit circuit;
    JtlChain chain;

    explicit JtlFixture(std::size_t stages,
                        const std::vector<double> &pulse_times)
    {
        chain = appendJtl(circuit, params, stages, "J");
        attachPulseInput(circuit, params, chain.input, pulse_times);
    }

    TransientResult
    run(double duration)
    {
        TransientConfig config;
        config.duration = duration;
        TransientSimulator sim(circuit, config);
        return sim.run();
    }
};

/** Each input pulse launches exactly one SFQ down the whole chain. */
class JtlPulseCount : public ::testing::TestWithParam<int>
{
};

TEST_P(JtlPulseCount, OneSlipPerPulsePerStage)
{
    const int pulses = GetParam();
    std::vector<double> times;
    for (int i = 0; i < pulses; ++i)
        times.push_back(40e-12 + 80e-12 * i);
    JtlFixture fixture(8, times);
    const auto result = fixture.run(60e-12 + 80e-12 * pulses);
    for (std::size_t j : fixture.chain.junctionIndices)
        EXPECT_EQ(result.switchCount(j), (std::size_t)pulses);
}

INSTANTIATE_TEST_SUITE_P(PulseTrains, JtlPulseCount,
                         ::testing::Values(1, 2, 3, 5));

TEST(Jtl, PropagationDelayIsPicosecondScale)
{
    JtlFixture fixture(10, {50e-12});
    const auto result = fixture.run(200e-12);
    const double delay = propagationDelay(
        result, fixture.chain.junctionIndices.front(),
        fixture.chain.junctionIndices.back());
    // 9 hops: expect sub-ps to few-ps per stage, ~10 kA/cm2 Nb.
    EXPECT_GT(delay, 1e-12);
    EXPECT_LT(delay, 30e-12);
}

TEST(Jtl, DelayGrowsWithChainLength)
{
    JtlFixture short_chain(4, {50e-12});
    JtlFixture long_chain(12, {50e-12});
    const auto rs = short_chain.run(200e-12);
    const auto rl = long_chain.run(200e-12);
    const double ds = propagationDelay(
        rs, short_chain.chain.junctionIndices.front(),
        short_chain.chain.junctionIndices.back());
    const double dl = propagationDelay(
        rl, long_chain.chain.junctionIndices.front(),
        long_chain.chain.junctionIndices.back());
    EXPECT_GT(dl, ds);
}

TEST(Jtl, QuietChainDoesNotSwitch)
{
    DeviceParams params;
    Circuit circuit;
    const JtlChain chain = appendJtl(circuit, params, 6, "J");
    (void)chain;
    TransientConfig config;
    config.duration = 300e-12;
    TransientSimulator sim(circuit, config);
    const auto result = sim.run();
    for (std::size_t j = 0; j < circuit.junctions().size(); ++j)
        EXPECT_EQ(result.switchCount(j), 0u);
}

TEST(Jtl, SwitchingEnergyMatchesIcPhi0PerSlip)
{
    JtlFixture fixture(5, {50e-12});
    TransientConfig config;
    config.duration = 150e-12;
    TransientSimulator sim(fixture.circuit, config);
    const auto result = sim.run();
    const double energy = sim.switchingEnergy(result);
    // 5 junctions x 1 slip x Ic*Phi0.
    const double expected = 5.0 * 1e-4 * phi0;
    EXPECT_NEAR(energy, expected, expected * 0.01);
}

// --- splitter ---------------------------------------------------------

TEST(Splitter, DuplicatesEveryPulse)
{
    DeviceParams params;
    Circuit circuit;
    const JtlChain feed = appendJtl(circuit, params, 3, "F");
    attachPulseInput(circuit, params, feed.input,
                     {50e-12, 130e-12, 210e-12});
    const Splitter splitter =
        appendSplitter(circuit, params, feed.output, "S");
    // Output JTLs so each branch is properly loaded.
    const JtlChain out_a =
        appendJtlFrom(circuit, params, splitter.outputA, 2, "A");
    const JtlChain out_b =
        appendJtlFrom(circuit, params, splitter.outputB, 2, "B");

    TransientConfig config;
    config.duration = 300e-12;
    TransientSimulator sim(circuit, config);
    const auto result = sim.run();

    EXPECT_EQ(result.switchCount(out_a.junctionIndices.back()), 3u);
    EXPECT_EQ(result.switchCount(out_b.junctionIndices.back()), 3u);
}

// --- DFF ---------------------------------------------------------------

struct DffFixture
{
    DeviceParams params;
    Circuit circuit;
    Dff dff;
    JtlChain outJtl;

    DffFixture(const std::vector<double> &data_times,
               const std::vector<double> &clock_times)
    {
        JtlChain data = appendJtl(circuit, params, 3, "D");
        attachPulseInput(circuit, params, data.input, data_times);
        JtlChain clock = appendJtl(circuit, params, 3, "C");
        attachPulseInput(circuit, params, clock.input, clock_times);
        dff = appendDff(circuit, params, DffParams{}, "F");
        circuit.addInductor(data.output, dff.dataIn,
                            params.jtlInductance);
        circuit.addInductor(clock.output, dff.clockIn,
                            params.jtlInductance);
        outJtl = appendJtlFrom(circuit, params, dff.output, 3, "O");
    }

    TransientResult
    run(double duration)
    {
        TransientConfig config;
        config.duration = duration;
        TransientSimulator sim(circuit, config);
        return sim.run();
    }
};

TEST(Dff, StoresAndReleasesOnClock)
{
    DffFixture fixture({50e-12}, {120e-12});
    const auto result = fixture.run(250e-12);
    EXPECT_EQ(result.switchCount(fixture.dff.storeJunction), 1u);
    EXPECT_EQ(result.switchCount(fixture.dff.releaseJunction), 1u);
    EXPECT_EQ(result.switchCount(fixture.outJtl.junctionIndices.back()),
              1u);
    // The release strictly follows the clock arrival, not the data.
    const double release =
        result.switchTimes[fixture.dff.releaseJunction].front();
    EXPECT_GT(release, 120e-12);
}

TEST(Dff, ClockWithoutDataIsAbsorbed)
{
    DffFixture fixture({}, {100e-12, 180e-12});
    const auto result = fixture.run(260e-12);
    EXPECT_EQ(result.switchCount(fixture.dff.releaseJunction), 0u);
    EXPECT_EQ(result.switchCount(fixture.outJtl.junctionIndices.back()),
              0u);
}

TEST(Dff, HoldsValueAcrossIdleClockThenReleases)
{
    // data @50; clocks @100 (release), @180 (no data -> absorbed),
    // data @250; clock @300 (release again).
    DffFixture fixture({50e-12, 250e-12},
                       {100e-12, 180e-12, 300e-12});
    const auto result = fixture.run(380e-12);
    EXPECT_EQ(result.switchCount(fixture.dff.storeJunction), 2u);
    EXPECT_EQ(result.switchCount(fixture.dff.releaseJunction), 2u);
    EXPECT_EQ(result.switchCount(fixture.outJtl.junctionIndices.back()),
              2u);
}

/** Logical-one streams of different lengths all come out intact. */
class DffTrainLength : public ::testing::TestWithParam<int>
{
};

TEST_P(DffTrainLength, EveryStoredBitIsReleased)
{
    const int bits = GetParam();
    std::vector<double> data, clocks;
    for (int i = 0; i < bits; ++i) {
        data.push_back(50e-12 + 120e-12 * i);
        clocks.push_back(110e-12 + 120e-12 * i);
    }
    DffFixture fixture(data, clocks);
    const auto result = fixture.run(120e-12 * bits + 120e-12);
    EXPECT_EQ(result.switchCount(fixture.dff.releaseJunction),
              (std::size_t)bits);
}

INSTANTIATE_TEST_SUITE_P(Trains, DffTrainLength,
                         ::testing::Values(1, 2, 4));

// --- simulator config validation ---------------------------------------

TEST(TransientDeath, RejectsEmptyCircuit)
{
    Circuit c;
    TransientConfig config;
    EXPECT_DEATH({ TransientSimulator sim(c, config); },
                 "no nodes besides ground");
}

// --- waveform capture -------------------------------------------------------

TEST(Waveforms, PulseIntegralIsOneFluxQuantum)
{
    // Fig. 1(b): the voltage pulse's time-integral is Phi0 — the
    // defining SFQ invariant, independent of pulse shape.
    DeviceParams params;
    Circuit circuit;
    const JtlChain chain = appendJtl(circuit, params, 6, "J");
    attachPulseInput(circuit, params, chain.input, {30e-12});

    TransientConfig config;
    config.duration = 80e-12;
    config.recordNodes = {chain.output};
    config.recordStride = 1;
    TransientSimulator sim(circuit, config);
    const auto result = sim.run();

    ASSERT_EQ(result.waveforms.size(), 1u);
    const Waveform &wave = result.waveforms.front();
    ASSERT_GT(wave.voltages.size(), 100u);

    double flux = 0.0, peak = 0.0;
    for (std::size_t i = 0; i + 1 < wave.voltages.size(); ++i) {
        flux += wave.voltages[i] * (wave.times[i + 1] - wave.times[i]);
        peak = std::max(peak, wave.voltages[i]);
    }
    // Within ~15% of Phi0 (the input-coupling tail adds a little).
    EXPECT_NEAR(flux, phi0, 0.15 * phi0);
    // Millivolt-class picosecond pulse.
    EXPECT_GT(peak, 0.2e-3);
    EXPECT_LT(peak, 10e-3);
    EXPECT_DOUBLE_EQ(result.peakVoltage(0), peak);
}

TEST(Waveforms, QuietNodeStaysFlatAfterBiasSettling)
{
    DeviceParams params;
    Circuit circuit;
    const JtlChain chain = appendJtl(circuit, params, 4, "J");
    (void)chain;
    TransientConfig config;
    config.duration = 60e-12;
    config.recordNodes = {chain.output};
    TransientSimulator sim(circuit, config);
    const auto result = sim.run();
    // The bias step at t=0 rings the plasma resonance briefly; after
    // settling, a pulse-free node shows no voltage.
    const Waveform &wave = result.waveforms.front();
    double late_peak = 0.0;
    for (std::size_t i = 0; i < wave.voltages.size(); ++i) {
        if (wave.times[i] > 30e-12)
            late_peak = std::max(late_peak, std::fabs(wave.voltages[i]));
    }
    EXPECT_LT(late_peak, 0.05e-3);
}

TEST(WaveformsDeath, RejectsUnknownNode)
{
    DeviceParams params;
    Circuit circuit;
    appendJtl(circuit, params, 2, "J");
    TransientConfig config;
    config.recordNodes = {99};
    TransientSimulator sim(circuit, config);
    EXPECT_DEATH((void)sim.run(), "recorded node out of range");
}

// --- clocked AND gate -----------------------------------------------------

struct AndFixture
{
    DeviceParams params;
    Circuit circuit;
    ClockedAnd gate;
    JtlChain outJtl;

    AndFixture(const std::vector<double> &a_times,
               const std::vector<double> &b_times,
               const std::vector<double> &clock_times)
    {
        JtlChain a = appendJtl(circuit, params, 3, "A");
        if (!a_times.empty())
            attachPulseInput(circuit, params, a.input, a_times);
        JtlChain b = appendJtl(circuit, params, 3, "B");
        if (!b_times.empty())
            attachPulseInput(circuit, params, b.input, b_times);
        JtlChain clk = appendJtl(circuit, params, 3, "C");
        attachPulseInput(circuit, params, clk.input, clock_times);

        gate = appendClockedAnd(circuit, params, ClockedAndParams{},
                                "G");
        circuit.addInductor(a.output, gate.inputA,
                            params.jtlInductance);
        circuit.addInductor(b.output, gate.inputB,
                            params.jtlInductance);
        circuit.addInductor(clk.output, gate.clockIn,
                            params.jtlInductance);
        outJtl = appendJtl(circuit, params, 2, "O");
        circuit.addInductor(gate.output, outJtl.input,
                            params.jtlInductance);
    }

    std::size_t
    outputPulses(double duration)
    {
        TransientConfig config;
        config.duration = duration;
        TransientSimulator sim(circuit, config);
        const auto result = sim.run();
        return result.switchCount(outJtl.junctionIndices.back());
    }
};

/** Truth table of the analog clocked AND. */
struct AndCase
{
    bool a, b;
    // gtest names each case after the bytes of its parameter, so the
    // padding is spelled out and zeroed to keep those names stable.
    unsigned char pad[sizeof(std::size_t) - 2];
    std::size_t expect;
};

class ClockedAndTruthTable : public ::testing::TestWithParam<AndCase>
{
};

TEST_P(ClockedAndTruthTable, MatchesBooleanAnd)
{
    const AndCase cs = GetParam();
    const std::vector<double> pulse = {50e-12};
    const std::vector<double> none = {};
    AndFixture fixture(cs.a ? pulse : none, cs.b ? pulse : none,
                       {120e-12});
    EXPECT_EQ(fixture.outputPulses(250e-12), cs.expect);
}

INSTANTIATE_TEST_SUITE_P(TruthTable, ClockedAndTruthTable,
                         ::testing::Values(AndCase{false, false, {}, 0},
                                           AndCase{false, true, {}, 0},
                                           AndCase{true, false, {}, 0},
                                           AndCase{true, true, {}, 1}));

TEST(ClockedAndExtra, OperatesOverMultipleCycles)
{
    // Cycle 1: a & b -> 1. Cycle 2: a only -> 0. Cycle 3: both -> 1.
    AndFixture fixture({50e-12, 200e-12, 350e-12}, {50e-12, 350e-12},
                       {120e-12, 270e-12, 420e-12});
    EXPECT_EQ(fixture.outputPulses(520e-12), 2u);
}

// --- clocked OR gate --------------------------------------------------------

struct OrCase
{
    bool a, b;
    // gtest names each case after the bytes of its parameter, so the
    // padding is spelled out and zeroed to keep those names stable.
    unsigned char pad[sizeof(std::size_t) - 2];
    std::size_t expect;
};

class ClockedOrTruthTable : public ::testing::TestWithParam<OrCase>
{
};

TEST_P(ClockedOrTruthTable, MatchesBooleanOr)
{
    const OrCase cs = GetParam();
    DeviceParams params;
    Circuit circuit;
    JtlChain a = appendJtl(circuit, params, 3, "A");
    if (cs.a)
        attachPulseInput(circuit, params, a.input, {50e-12});
    JtlChain b = appendJtl(circuit, params, 3, "B");
    if (cs.b)
        attachPulseInput(circuit, params, b.input, {52e-12});
    JtlChain clk = appendJtl(circuit, params, 3, "C");
    attachPulseInput(circuit, params, clk.input, {120e-12});

    const ClockedOr gate = appendClockedOr(circuit, params, "G");
    circuit.addInductor(a.output, gate.inputA, params.jtlInductance);
    circuit.addInductor(b.output, gate.inputB, params.jtlInductance);
    circuit.addInductor(clk.output, gate.clockIn,
                        params.jtlInductance);
    const JtlChain out = appendJtl(circuit, params, 2, "O");
    circuit.addInductor(gate.output, out.input, params.jtlInductance);

    TransientConfig config;
    config.duration = 220e-12;
    TransientSimulator sim(circuit, config);
    const auto result = sim.run();
    EXPECT_EQ(result.switchCount(out.junctionIndices.back()),
              cs.expect);
    // The shared loop never double-stores.
    EXPECT_LE(result.switchCount(gate.loop.storeJunction), 1u);
}

INSTANTIATE_TEST_SUITE_P(TruthTable, ClockedOrTruthTable,
                         ::testing::Values(OrCase{false, false, {}, 0},
                                           OrCase{false, true, {}, 1},
                                           OrCase{true, false, {}, 1},
                                           OrCase{true, true, {}, 1}));

// --- sparse mass-matrix solve against the dense reference -----------------

/**
 * Dense partial-pivot LU followed by a full dense forward and back
 * substitution: the reference the sparse solve must match bit for
 * bit.
 */
std::vector<double>
denseReferenceSolve(const DenseMatrix &matrix, const std::vector<double> &b)
{
    const std::size_t n = matrix.rows();
    std::vector<double> lu(n * n);
    std::vector<std::size_t> perm(n);
    for (std::size_t r = 0; r < n; ++r) {
        perm[r] = r;
        for (std::size_t c = 0; c < n; ++c)
            lu[r * n + c] = matrix.at(r, c);
    }
    for (std::size_t k = 0; k < n; ++k) {
        std::size_t pivot = k;
        double best = std::fabs(lu[k * n + k]);
        for (std::size_t r = k + 1; r < n; ++r) {
            if (std::fabs(lu[r * n + k]) > best) {
                best = std::fabs(lu[r * n + k]);
                pivot = r;
            }
        }
        if (pivot != k) {
            for (std::size_t c = 0; c < n; ++c)
                std::swap(lu[k * n + c], lu[pivot * n + c]);
            std::swap(perm[k], perm[pivot]);
        }
        for (std::size_t r = k + 1; r < n; ++r) {
            const double factor = lu[r * n + k] / lu[k * n + k];
            lu[r * n + k] = factor;
            for (std::size_t c = k + 1; c < n; ++c)
                lu[r * n + c] -= factor * lu[k * n + c];
        }
    }

    std::vector<double> x(n);
    for (std::size_t r = 0; r < n; ++r)
        x[r] = b[perm[r]];
    for (std::size_t r = 1; r < n; ++r) {
        double acc = x[r];
        for (std::size_t c = 0; c < r; ++c)
            acc -= lu[r * n + c] * x[c];
        x[r] = acc;
    }
    for (std::size_t ri = n; ri-- > 0;) {
        double acc = x[ri];
        for (std::size_t c = ri + 1; c < n; ++c)
            acc -= lu[ri * n + c] * x[c];
        x[ri] = acc / lu[ri * n + ri];
    }
    return x;
}

/** A value in [-1, 1) drawn from `rng`, identical on every platform. */
double
unitDraw(std::mt19937_64 &rng)
{
    return (double)(rng() >> 11) * 0x1p-52 - 1.0;
}

/**
 * Solve `matrix` against a spread of right-hand sides, through the
 * sparse factors and through the dense reference, and require
 * byte-identical solutions. Current-like magnitudes (1e-4 A) and
 * exact zeros are both covered; no entry is a negative zero, which
 * the simulator's nodal currents never are either.
 */
void
expectSparseSolveMatchesDense(const DenseMatrix &matrix,
                              const std::string &what)
{
    const std::size_t n = matrix.rows();
    const LuFactorization lu(matrix);
    std::mt19937_64 rng(n);
    std::vector<double> work;
    for (int trial = 0; trial < 8; ++trial) {
        std::vector<double> b(n, 0.0);
        for (std::size_t i = 0; i < n; ++i) {
            if (trial == 0 && i % 3 == 1)
                continue; // leave some exact zeros
            b[i] = unitDraw(rng) * (trial % 2 ? 1e-4 : 1.0);
        }
        const std::vector<double> dense = denseReferenceSolve(matrix, b);
        lu.solveInPlace(b, work);
        ASSERT_EQ(b.size(), n) << what;
        EXPECT_EQ(std::memcmp(b.data(), dense.data(), n * sizeof(double)),
                  0)
            << what << ", right-hand side " << trial;
    }
}

TEST(Linalg, SparseSolveMatchesDenseReferenceBitwise)
{
    const double parasitic = TransientConfig{}.nodeParasiticCap;
    std::vector<std::pair<std::string, Circuit>> circuits;

    circuits.emplace_back("10-stage JTL",
                          JtlFixture(10, {50e-12}).circuit);
    {
        DeviceParams params;
        Circuit circuit;
        const JtlChain feed = appendJtl(circuit, params, 3, "F");
        const Splitter splitter =
            appendSplitter(circuit, params, feed.output, "S");
        appendJtlFrom(circuit, params, splitter.outputA, 2, "A");
        appendJtlFrom(circuit, params, splitter.outputB, 2, "B");
        circuits.emplace_back("splitter", circuit);
    }
    circuits.emplace_back("DFF", DffFixture({50e-12}, {120e-12}).circuit);
    circuits.emplace_back(
        "concurrent shift register",
        buildShiftRegister(ClockRouting::Concurrent, 20e-12, 4).circuit);
    circuits.emplace_back(
        "counter-flow shift register",
        buildShiftRegister(ClockRouting::CounterFlow, 20e-12, 4).circuit);
    circuits.emplace_back(
        "clocked AND", AndFixture({50e-12}, {50e-12}, {120e-12}).circuit);
    {
        DeviceParams params;
        Circuit circuit;
        const JtlChain a = appendJtl(circuit, params, 3, "A");
        const JtlChain b = appendJtl(circuit, params, 3, "B");
        const JtlChain clk = appendJtl(circuit, params, 3, "C");
        const ClockedOr gate = appendClockedOr(circuit, params, "G");
        circuit.addInductor(a.output, gate.inputA, params.jtlInductance);
        circuit.addInductor(b.output, gate.inputB, params.jtlInductance);
        circuit.addInductor(clk.output, gate.clockIn,
                            params.jtlInductance);
        circuits.emplace_back("clocked OR", circuit);
    }
    for (const auto &[name, circuit] : circuits)
        expectSparseSolveMatchesDense(massMatrix(circuit, parasitic), name);

    // Random dense matrices whose largest first-column entry sits in
    // the last row, so the factorization must swap rows.
    std::mt19937_64 rng(2026);
    for (std::size_t n : {2u, 5u, 12u, 24u}) {
        DenseMatrix m(n, n);
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = 0; c < n; ++c)
                m.at(r, c) = unitDraw(rng);
        }
        m.at(n - 1, 0) = 4.0;
        expectSparseSolveMatchesDense(m, "random " + std::to_string(n));
    }
}

TEST(Linalg, ShiftRegisterFactorsKeepOnlyFloatingJunctionEntries)
{
    // Only the two DFF escape junctions float between free nodes, so
    // the factors hold one L and one U entry for each of them.
    const ShiftRegister sr =
        buildShiftRegister(ClockRouting::Concurrent, 20e-12, 4);
    const LuFactorization lu(
        massMatrix(sr.circuit, sr.config.nodeParasiticCap));
    EXPECT_EQ(lu.size(), sr.circuit.nodeCount() - 1);
    EXPECT_EQ(lu.offDiagonalNonzeros(), 4u);
}

// --- analog clocking experiment (Fig. 7 at the device level) -------------

TEST(ShiftRegisterExperiment, DeliversAllBitsAtModestClock)
{
    // 25 GHz is comfortably inside both schemes' margins.
    EXPECT_EQ(shiftRegisterOutputCount(ClockRouting::Concurrent,
                                       40e-12, 4),
              4u);
    EXPECT_EQ(shiftRegisterOutputCount(ClockRouting::CounterFlow,
                                       40e-12, 4),
              4u);
}

TEST(ShiftRegisterExperiment, DropsBitsWhenOverclocked)
{
    EXPECT_LT(shiftRegisterOutputCount(ClockRouting::Concurrent,
                                       8e-12, 4),
              4u);
}

TEST(Margins, DffBiasMarginIsWide)
{
    // A manufacturable cell needs wide bias margins; the tuned DFF
    // tolerates at least +/-30% on its loop bias.
    const Margin margin =
        dffParameterMargin(DffParameter::LoopBias, 15.0, 45.0);
    EXPECT_GE(margin.worstPercent(), 30.0);
}

TEST(Margins, ReleaseJunctionIsTheTightestParameter)
{
    // The release junction's Ic sets the store/escape thresholds:
    // its margin is real but narrower than the bias margin.
    const Margin ic =
        dffParameterMargin(DffParameter::ReleaseIc, 10.0, 60.0);
    EXPECT_GE(ic.worstPercent(), 20.0);
    const Margin bias =
        dffParameterMargin(DffParameter::LoopBias, 10.0, 60.0);
    EXPECT_LE(ic.worstPercent(), bias.worstPercent());
}

TEST(Margins, WorstPercentIsTheSmallerSide)
{
    Margin margin;
    margin.lowPercent = 40.0;
    margin.highPercent = 30.0;
    EXPECT_DOUBLE_EQ(margin.worstPercent(), 30.0);
}

TEST(ShiftRegisterExperiment, CounterFlowTopsOutBelowConcurrent)
{
    // The analog measurement behind Fig. 7(c): the same storage
    // cells clock measurably slower when the clock runs against the
    // data (the scheme feedback loops force).
    const double concurrent =
        maxShiftClockGhz(ClockRouting::Concurrent);
    const double counter =
        maxShiftClockGhz(ClockRouting::CounterFlow);
    EXPECT_GT(concurrent, 50.0);
    EXPECT_GT(counter, 30.0);
    EXPECT_GT(concurrent, counter * 1.1);
}

} // namespace
} // namespace jsim
} // namespace supernpu
