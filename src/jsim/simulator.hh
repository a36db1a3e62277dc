/**
 * @file
 * Transient simulator for Josephson-junction netlists.
 */

#ifndef SUPERNPU_JSIM_SIMULATOR_HH
#define SUPERNPU_JSIM_SIMULATOR_HH

#include <vector>

#include "circuit.hh"
#include "linalg.hh"

namespace supernpu {
namespace jsim {

/** Simulator configuration. */
struct TransientConfig
{
    double timeStep = 0.05e-12;  ///< integration step, seconds
    double duration = 500e-12;   ///< simulated span, seconds
    /**
     * Parasitic capacitance added to every node so the mass matrix is
     * invertible even for nodes not touching a junction.
     */
    double nodeParasiticCap = 1e-15;

    /** Nodes whose waveforms to record (empty = record nothing). */
    std::vector<NodeId> recordNodes;
    /** Record every n-th step (decimation for long runs). */
    std::size_t recordStride = 4;
};

/** A recorded node waveform. */
struct Waveform
{
    NodeId node = ground;
    std::vector<double> times;    ///< seconds
    std::vector<double> phases;   ///< radians
    std::vector<double> voltages; ///< volts ((Phi0/2pi) dphi/dt)
};

/** Result of a transient run. */
struct TransientResult
{
    /** 2-pi phase slip times for each junction, ordered by time. */
    std::vector<std::vector<double>> switchTimes;
    /** Final phase of each node (ground included, index 0). */
    std::vector<double> finalPhases;
    /** Number of integration steps taken. */
    std::size_t steps = 0;
    /** Recorded waveforms, one per requested node, in order. */
    std::vector<Waveform> waveforms;

    /** Total number of 2-pi slips of the labeled junction. */
    std::size_t switchCount(std::size_t junction_index) const;

    /** Peak voltage of a recorded waveform, volts. */
    double peakVoltage(std::size_t waveform_index) const;
};

/**
 * The free-node mass matrix (ground excluded) of the nodal phase ODE:
 * junction capacitances plus `parasitic_cap` on every node, scaled by
 * Phi0/2pi. Only a junction between two free nodes puts an entry off
 * the diagonal.
 */
DenseMatrix massMatrix(const Circuit &circuit, double parasitic_cap);

/**
 * Integrates the circuit's nodal phase ODE with classical RK4 and
 * records every junction's 2-pi phase slips (SFQ switch events).
 *
 * Usage: construct once per circuit (the mass matrix is factored in
 * the constructor), then call run().
 */
class TransientSimulator
{
  public:
    TransientSimulator(const Circuit &circuit,
                       const TransientConfig &config);

    /** Run the transient analysis from an all-zero initial state. */
    TransientResult run() const;

    /**
     * Estimate the dynamic energy dissipated by all recorded switch
     * events: each 2-pi slip of a junction dissipates ~ Ic * Phi0.
     */
    double switchingEnergy(const TransientResult &result) const;

  private:
    /**
     * Evaluate node accelerations for state (phi, omega) at time t.
     * `work` is the mass-matrix solve's scratch, owned by run().
     */
    void accelerations(const std::vector<double> &phi,
                       const std::vector<double> &omega, double t,
                       std::vector<double> &accel_out,
                       std::vector<double> &work) const;

    /** Total source current injected into each free node at time t. */
    void injectedCurrents(double t, std::vector<double> &out) const;

    const Circuit &_circuit;
    TransientConfig _config;
    std::size_t _freeNodes; ///< node count excluding ground
    LuFactorization _massLu;
};

} // namespace jsim
} // namespace supernpu

#endif // SUPERNPU_JSIM_SIMULATOR_HH
