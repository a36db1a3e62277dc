/**
 * @file
 * Architecture-level estimation implementation.
 */

#include "npu_estimator.hh"

#include <algorithm>

#include "buffer_model.hh"
#include "common/logging.hh"
#include "dau_model.hh"
#include "io_model.hh"
#include "network_model.hh"
#include "pe_model.hh"

namespace supernpu {
namespace estimator {

using sfq::ClockScheme;
using sfq::GateKind;
using sfq::GatePair;

double
NpuEstimate::areaMm2At(double feature_nm) const
{
    SUPERNPU_ASSERT(feature_nm > 0 && nativeFeatureUm > 0,
                    "bad feature sizes");
    const double ratio = feature_nm / (nativeFeatureUm * 1000.0);
    return areaMm2 * ratio * ratio;
}

namespace {

/**
 * fatal() unless a shift-register buffer of `capacity_bytes` over
 * `rows` rows (one per PE along `dimension`) holds at least one
 * `bit_width` entry per row: its row and chunk lengths, which the
 * timing model reads, would otherwise be zero.
 */
void
requireRowEntry(const char *buffer, std::uint64_t capacity_bytes,
                const char *dimension, int rows, int bit_width)
{
    const std::uint64_t entry_bytes = (std::uint64_t)bit_width / 8;
    if (capacity_bytes / (std::uint64_t)rows < entry_bytes) {
        fatal("PE ", dimension, " ", rows, " leaves the ", buffer,
              " buffer (", capacity_bytes, " bytes) less than one ",
              bit_width, "-bit entry per row");
    }
}

} // namespace

NpuEstimator::NpuEstimator(const sfq::CellLibrary &lib)
    : _lib(lib)
{
}

NpuEstimate
NpuEstimator::estimate(const NpuConfig &config) const
{
    config.check();
    // The two buffers whose row geometry the timing model reads.
    requireRowEntry("ifmap", config.ifmapBufferBytes, "height",
                    config.peHeight, config.bitWidth);
    requireRowEntry(config.integratedOutputBuffer ? "output" : "psum",
                    config.integratedOutputBuffer
                        ? config.outputBufferBytes
                        : config.psumBufferBytes,
                    "width", config.peWidth, config.bitWidth);

    NpuEstimate est;
    est.config = config;
    est.nativeFeatureUm = _lib.device().featureSizeUm;

    // --- microarchitecture units ------------------------------------
    PeModel pe(_lib, config.bitWidth, config.regsPerPe);
    NetworkUnitModel network(_lib, NetworkDesign::Systolic2D,
                             config.peWidth, config.bitWidth);
    DauModel dau(_lib, config.peHeight, config.bitWidth,
                 pe.pipelineStages());

    BufferModel ifmap(_lib, config.ifmapBufferBytes, config.peHeight,
                      config.bitWidth, config.ifmapDivision);
    BufferModel weight(_lib, config.weightBufferBytes, config.peWidth,
                       config.bitWidth, 1);

    std::vector<BufferModel> output_buffers;
    if (config.integratedOutputBuffer) {
        output_buffers.emplace_back(_lib, config.outputBufferBytes,
                                    config.peWidth, config.bitWidth,
                                    config.outputDivision);
    } else {
        output_buffers.emplace_back(_lib, config.psumBufferBytes,
                                    config.peWidth, config.bitWidth,
                                    config.outputDivision);
        output_buffers.emplace_back(_lib, config.ofmapBufferBytes,
                                    config.peWidth, config.bitWidth,
                                    config.outputDivision);
    }

    // --- per-unit roll-up --------------------------------------------
    auto add_unit = [&](const std::string &name, double freq,
                        double static_w, double area, std::uint64_t jj) {
        est.units.push_back({name, freq, static_w, area, jj});
        est.staticPowerW += static_w;
        est.areaMm2 += area;
        est.jjCount += jj;
    };

    add_unit("PE array", pe.frequencyGhz(),
             pe.staticPower() * config.peCount(),
             pe.area() * config.peCount(),
             pe.jjCount() * (std::uint64_t)config.peCount());
    add_unit("NW unit", network.frequencyGhz(),
             network.staticPower() * config.peHeight,
             network.area() * config.peHeight,
             network.jjCount() * (std::uint64_t)config.peHeight);
    add_unit("DAU", dau.frequencyGhz(), dau.staticPower(), dau.area(),
             dau.jjCount());
    add_unit("Ifmap buffer", ifmap.frequencyGhz(), ifmap.staticPower(),
             ifmap.area(), ifmap.jjCount());
    add_unit("Weight buffer", weight.frequencyGhz(),
             weight.staticPower(), weight.area(), weight.jjCount());
    if (config.integratedOutputBuffer) {
        add_unit("Output buffer", output_buffers[0].frequencyGhz(),
                 output_buffers[0].staticPower(),
                 output_buffers[0].area(), output_buffers[0].jjCount());
    } else {
        add_unit("Psum buffer", output_buffers[0].frequencyGhz(),
                 output_buffers[0].staticPower(),
                 output_buffers[0].area(), output_buffers[0].jjCount());
        add_unit("Ofmap buffer", output_buffers[1].frequencyGhz(),
                 output_buffers[1].staticPower(),
                 output_buffers[1].area(), output_buffers[1].jjCount());
    }

    IoModel io(_lib, config);
    add_unit("I/O + clkgen", 0.0, io.staticPower(), io.area(),
             io.jjCount());

    // --- inter-unit timing arcs (Section IV-A3) ----------------------
    // Unit-to-unit PTL runs are clock-skewed concurrent-flow arcs;
    // the run length grows with the units' footprint.
    const double ptl_run_ps =
        3.0 * _lib.device().timingScale();
    std::vector<std::pair<std::string, double>> arc_freqs;
    auto inter_arc = [&](const std::string &name, GateKind driver,
                         GateKind receiver) {
        GatePair pair = sfq::makePair(_lib, name, driver, receiver,
                                      {GateKind::SPLITTER}, 0.0,
                                      ClockScheme::ConcurrentFlow);
        pair.dataWireDelay += ptl_run_ps;
        // Inter-unit clocking is skewed to 85% cancellation.
        pair = sfq::withClockSkew(pair, 0.85);
        arc_freqs.emplace_back(name, sfq::pairFrequencyGhz(pair));
    };
    inter_arc("ifmap-buf->DAU", GateKind::DFF, GateKind::DFF_BYPASS);
    inter_arc("DAU->PE", GateKind::DFF_BYPASS, GateKind::AND);
    inter_arc("weight-buf->PE", GateKind::DFF, GateKind::NDRO);
    inter_arc("PE->output-buf", GateKind::XOR, GateKind::DFF);

    // --- achievable clock: minimum over everything --------------------
    est.frequencyGhz = 0.0;
    for (const auto &unit : est.units) {
        if (unit.frequencyGhz <= 0.0)
            continue;
        if (est.frequencyGhz == 0.0 ||
            unit.frequencyGhz < est.frequencyGhz) {
            est.frequencyGhz = unit.frequencyGhz;
            est.limitingUnit = unit.name;
        }
    }
    for (const auto &[name, freq] : arc_freqs) {
        if (freq < est.frequencyGhz) {
            est.frequencyGhz = freq;
            est.limitingUnit = name;
        }
    }
    SUPERNPU_ASSERT(est.frequencyGhz > 0.0, "no clocked units found");

    est.peakMacPerSec =
        (double)config.peCount() * est.frequencyGhz * 1e9;

    // --- energy coefficients and geometry snapshots -------------------
    est.peMacEnergyJ = pe.macEnergy();
    est.ifmapChunkShiftEnergyJ = ifmap.chunkShiftEnergy();
    est.outputChunkShiftEnergyJ = output_buffers[0].chunkShiftEnergy();
    est.dauForwardEnergyJ = dau.forwardEnergy();
    est.nwHopEnergyJ = network.hopEnergy();

    est.ifmapRowLength = ifmap.rowLengthEntries();
    est.ifmapChunkLength = ifmap.chunkLengthEntries();
    est.outputRowLength = output_buffers[0].rowLengthEntries();
    est.outputChunkLength = output_buffers[0].chunkLengthEntries();

    return est;
}

} // namespace estimator
} // namespace supernpu
