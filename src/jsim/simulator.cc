/**
 * @file
 * Transient simulator implementation.
 */

#include "simulator.hh"

#include <cmath>

#include "common/logging.hh"

namespace supernpu {
namespace jsim {

namespace {

/** Raised-cosine pulse value at offset t in [0, width). */
double
raisedCosine(double t, double width, double amplitude)
{
    if (t < 0.0 || t >= width)
        return 0.0;
    return 0.5 * amplitude * (1.0 - std::cos(2.0 * M_PI * t / width));
}

} // namespace

DenseMatrix
massMatrix(const Circuit &circuit, double parasitic_cap)
{
    const std::size_t free_nodes = circuit.nodeCount() - 1;
    DenseMatrix mass(free_nodes, free_nodes);

    for (std::size_t n = 0; n < free_nodes; ++n)
        mass.at(n, n) = parasitic_cap * phi0Over2Pi;

    for (const auto &jj : circuit.junctions()) {
        const double c = jj.capacitance * phi0Over2Pi;
        if (jj.positive != ground) {
            const std::size_t a = jj.positive - 1;
            mass.at(a, a) += c;
            if (jj.negative != ground) {
                const std::size_t b = jj.negative - 1;
                mass.at(a, b) -= c;
                mass.at(b, a) -= c;
            }
        }
        if (jj.negative != ground) {
            const std::size_t b = jj.negative - 1;
            mass.at(b, b) += c;
        }
    }
    return mass;
}

std::size_t
TransientResult::switchCount(std::size_t junction_index) const
{
    SUPERNPU_ASSERT(junction_index < switchTimes.size(),
                    "junction index out of range");
    return switchTimes[junction_index].size();
}

double
TransientResult::peakVoltage(std::size_t waveform_index) const
{
    SUPERNPU_ASSERT(waveform_index < waveforms.size(),
                    "waveform index out of range");
    double peak = 0.0;
    for (double v : waveforms[waveform_index].voltages)
        peak = std::max(peak, v);
    return peak;
}

TransientSimulator::TransientSimulator(const Circuit &circuit,
                                       const TransientConfig &config)
    : _circuit(circuit),
      _config(config),
      _freeNodes(circuit.nodeCount() - 1),
      _massLu(massMatrix(circuit, config.nodeParasiticCap))
{
    SUPERNPU_ASSERT(_freeNodes > 0, "circuit has no nodes besides ground");
    SUPERNPU_ASSERT(config.timeStep > 0 && config.duration > 0,
                    "bad transient config");
}

void
TransientSimulator::injectedCurrents(double t,
                                     std::vector<double> &out) const
{
    for (const auto &bias : _circuit.biases()) {
        if (bias.into != ground)
            out[bias.into - 1] += bias.current;
    }
    for (const auto &pulse : _circuit.pulses()) {
        if (pulse.into == ground)
            continue;
        for (double start : pulse.times) {
            out[pulse.into - 1] +=
                raisedCosine(t - start, pulse.width, pulse.amplitude);
        }
    }
}

void
TransientSimulator::accelerations(const std::vector<double> &phi,
                                  const std::vector<double> &omega,
                                  double t,
                                  std::vector<double> &accel_out,
                                  std::vector<double> &work) const
{
    accel_out.assign(_freeNodes, 0.0);
    injectedCurrents(t, accel_out);

    auto phase_of = [&](NodeId n) {
        return n == ground ? 0.0 : phi[n - 1];
    };
    auto rate_of = [&](NodeId n) {
        return n == ground ? 0.0 : omega[n - 1];
    };
    auto drain = [&](NodeId a, NodeId b, double current) {
        if (a != ground)
            accel_out[a - 1] -= current;
        if (b != ground)
            accel_out[b - 1] += current;
    };

    for (const auto &jj : _circuit.junctions()) {
        const double dphi = phase_of(jj.positive) - phase_of(jj.negative);
        const double domega = rate_of(jj.positive) - rate_of(jj.negative);
        const double super = jj.criticalCurrent * std::sin(dphi);
        const double resistive =
            phi0Over2Pi * domega / jj.shuntResistance;
        drain(jj.positive, jj.negative, super + resistive);
    }

    for (const auto &ind : _circuit.inductors()) {
        const double dphi = phase_of(ind.positive) - phase_of(ind.negative);
        drain(ind.positive, ind.negative,
              phi0Over2Pi * dphi / ind.inductance);
    }

    for (const auto &res : _circuit.resistors()) {
        const double domega = rate_of(res.positive) - rate_of(res.negative);
        drain(res.positive, res.negative,
              phi0Over2Pi * domega / res.resistance);
    }

    _massLu.solveInPlace(accel_out, work);
}

TransientResult
TransientSimulator::run() const
{
    const double dt = _config.timeStep;
    const std::size_t steps =
        (std::size_t)std::ceil(_config.duration / dt);

    std::vector<double> phi(_freeNodes, 0.0);
    std::vector<double> omega(_freeNodes, 0.0);

    const auto &junctions = _circuit.junctions();
    TransientResult result;
    result.switchTimes.resize(junctions.size());
    for (NodeId node : _config.recordNodes) {
        SUPERNPU_ASSERT(node < _circuit.nodeCount(),
                        "recorded node out of range");
        Waveform waveform;
        waveform.node = node;
        result.waveforms.push_back(std::move(waveform));
    }

    // Phase-slip tracking: the "winding number" of each junction.
    std::vector<long> winding(junctions.size(), 0);

    auto junction_phase = [&](const Junction &jj) {
        const double pa = jj.positive == ground ? 0.0 : phi[jj.positive - 1];
        const double pb = jj.negative == ground ? 0.0 : phi[jj.negative - 1];
        return pa - pb;
    };

    // RK4 scratch buffers.
    std::vector<double> k1p, k2p, k3p, k4p; // d phi
    std::vector<double> k1w(_freeNodes), k2w(_freeNodes), k3w(_freeNodes),
        k4w(_freeNodes); // d omega
    std::vector<double> tmp_phi(_freeNodes), tmp_omega(_freeNodes);
    std::vector<double> solve_work(_freeNodes);

    for (std::size_t step = 0; step < steps; ++step) {
        const double t = (double)step * dt;

        // k1
        k1p = omega;
        accelerations(phi, omega, t, k1w, solve_work);

        // k2
        for (std::size_t n = 0; n < _freeNodes; ++n) {
            tmp_phi[n] = phi[n] + 0.5 * dt * k1p[n];
            tmp_omega[n] = omega[n] + 0.5 * dt * k1w[n];
        }
        k2p = tmp_omega;
        accelerations(tmp_phi, tmp_omega, t + 0.5 * dt, k2w, solve_work);

        // k3
        for (std::size_t n = 0; n < _freeNodes; ++n) {
            tmp_phi[n] = phi[n] + 0.5 * dt * k2p[n];
            tmp_omega[n] = omega[n] + 0.5 * dt * k2w[n];
        }
        k3p = tmp_omega;
        accelerations(tmp_phi, tmp_omega, t + 0.5 * dt, k3w, solve_work);

        // k4
        for (std::size_t n = 0; n < _freeNodes; ++n) {
            tmp_phi[n] = phi[n] + dt * k3p[n];
            tmp_omega[n] = omega[n] + dt * k3w[n];
        }
        k4p = tmp_omega;
        accelerations(tmp_phi, tmp_omega, t + dt, k4w, solve_work);

        for (std::size_t n = 0; n < _freeNodes; ++n) {
            phi[n] += dt / 6.0 *
                      (k1p[n] + 2.0 * k2p[n] + 2.0 * k3p[n] + k4p[n]);
            omega[n] += dt / 6.0 *
                        (k1w[n] + 2.0 * k2w[n] + 2.0 * k3w[n] + k4w[n]);
        }

        // Record requested node waveforms.
        if (!result.waveforms.empty() &&
            step % _config.recordStride == 0) {
            for (auto &waveform : result.waveforms) {
                const NodeId n = waveform.node;
                waveform.times.push_back(t + dt);
                waveform.phases.push_back(
                    n == ground ? 0.0 : phi[n - 1]);
                waveform.voltages.push_back(
                    n == ground ? 0.0
                                : phi0Over2Pi * omega[n - 1]);
            }
        }

        // Detect forward 2-pi slips.
        for (std::size_t j = 0; j < junctions.size(); ++j) {
            const double dphi = junction_phase(junctions[j]);
            const long w = (long)std::floor((dphi + M_PI) / (2.0 * M_PI));
            while (w > winding[j]) {
                ++winding[j];
                result.switchTimes[j].push_back(t + dt);
            }
            if (w < winding[j])
                winding[j] = w; // backward slip: track, do not record
        }
    }

    result.finalPhases.assign(_circuit.nodeCount(), 0.0);
    for (std::size_t n = 0; n < _freeNodes; ++n)
        result.finalPhases[n + 1] = phi[n];
    result.steps = steps;
    return result;
}

double
TransientSimulator::switchingEnergy(const TransientResult &result) const
{
    double energy = 0.0;
    const auto &junctions = _circuit.junctions();
    for (std::size_t j = 0; j < junctions.size(); ++j) {
        energy += (double)result.switchTimes[j].size() *
                  junctions[j].criticalCurrent * phi0;
    }
    return energy;
}

} // namespace jsim
} // namespace supernpu
