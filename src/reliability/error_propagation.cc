/**
 * @file
 * Error-propagation implementation: per-layer bit-flip injection
 * into the golden functional path.
 */

#include "error_propagation.hh"

#include <cmath>
#include <cstdlib>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "functional/inference.hh"

namespace supernpu {
namespace reliability {

namespace {

// Sub-streams of the report seed (distinct from the weight stream,
// which uses the seed directly).
constexpr std::uint64_t kInputStream = 0x1a9b0;
constexpr std::uint64_t kFlipStreamBase = 0x1a9b1;

/**
 * Flip one bit in `flips` randomly chosen raw-conv outputs. The bit
 * position is uniform over the live psum magnitude — everything up
 * to `max_bit` (the layer's requantization shift plus the int8
 * width), so flips below the shift demonstrate the masking the
 * requantizer provides and flips above it survive into the
 * activations.
 */
void
injectFlips(functional::Tensor3 &conv, std::uint64_t flips, Rng &rng,
            int max_bit)
{
    for (std::uint64_t i = 0; i < flips; ++i) {
        const int c = (int)rng.uniformInt(0, conv.channels() - 1);
        const int y = (int)rng.uniformInt(0, conv.height() - 1);
        const int x = (int)rng.uniformInt(0, conv.width() - 1);
        const int bit = (int)rng.uniformInt(0, max_bit);
        std::uint32_t bits = (std::uint32_t)conv.at(c, y, x);
        bits ^= 1u << bit;
        conv.at(c, y, x) = (std::int32_t)bits;
    }
}

/** Compare post-op activations element-wise. */
LayerErrorStats
compareActivations(const functional::Tensor3 &clean,
                   const functional::Tensor3 &faulted)
{
    SUPERNPU_ASSERT(clean.channels() == faulted.channels() &&
                        clean.height() == faulted.height() &&
                        clean.width() == faulted.width(),
                    "clean/faulted shape divergence");
    LayerErrorStats stats;
    stats.outputs = (std::uint64_t)clean.channels() * clean.height() *
                    clean.width();
    double abs_sum = 0.0;
    for (int c = 0; c < clean.channels(); ++c) {
        for (int y = 0; y < clean.height(); ++y) {
            for (int x = 0; x < clean.width(); ++x) {
                const std::int32_t delta =
                    faulted.at(c, y, x) - clean.at(c, y, x);
                if (delta == 0)
                    continue;
                ++stats.wrongOutputs;
                const std::int32_t mag = std::abs(delta);
                abs_sum += mag;
                stats.maxAbsError = std::max(stats.maxAbsError, mag);
            }
        }
    }
    stats.fracWrong =
        (double)stats.wrongOutputs / (double)stats.outputs;
    stats.meanAbsError = abs_sum / (double)stats.outputs;
    return stats;
}

} // namespace

bool
canPropagate(const dnn::Network &network)
{
    if (network.layers.empty())
        return false;

    int cur_c = network.layers.front().inChannels;
    int cur_h = network.layers.front().inHeight;
    int cur_w = network.layers.front().inWidth;
    bool first = true;
    for (const dnn::Layer &shape : network.layers) {
        if (shape.kind == dnn::LayerKind::FullyConnected &&
            (cur_h > 1 || cur_w > 1)) {
            while (!first && cur_c * cur_h * cur_w > shape.inChannels &&
                   cur_h >= 2) {
                cur_h = (cur_h - 2) / 2 + 1;
                cur_w = (cur_w - 2) / 2 + 1;
            }
            if (cur_c * cur_h * cur_w != shape.inChannels)
                return false;
        } else {
            while (!first && cur_h > shape.inHeight && cur_h >= 2) {
                cur_h = (cur_h - 2) / 2 + 1;
                cur_w = (cur_w - 2) / 2 + 1;
            }
            if (cur_h != shape.inHeight || cur_c != shape.inChannels)
                return false;
        }
        cur_c = shape.outChannels;
        cur_h = shape.outHeight();
        cur_w = shape.outWidth();
        first = false;
    }
    return true;
}

std::uint64_t
ErrorPropagationReport::totalFlips() const
{
    std::uint64_t total = 0;
    for (const LayerErrorStats &stats : layers)
        total += stats.flips;
    return total;
}

const LayerErrorStats &
ErrorPropagationReport::final() const
{
    SUPERNPU_ASSERT(!layers.empty(), "empty error report");
    return layers.back();
}

ErrorPropagationReport
propagateErrors(const dnn::Network &network,
                double flips_per_million_macs, std::uint64_t seed)
{
    network.check();
    if (!(flips_per_million_macs >= 0 &&
          flips_per_million_macs <= kMaxFlipsPerMillionMacs)) {
        fatal("flip rate must be in [0, ", kMaxFlipsPerMillionMacs,
              "] flips per million MACs, got ", flips_per_million_macs);
    }

    Rng weight_rng(seed);
    const functional::InferencePipeline pipeline =
        functional::buildPipeline(network, weight_rng);

    const dnn::Layer &entry = pipeline.layers.front().shape;
    functional::Tensor3 input(entry.inChannels, entry.inHeight,
                              entry.inWidth);
    Rng input_rng(streamSeed(seed, kInputStream));
    input.fillRandom(input_rng);

    ErrorPropagationReport report;
    report.network = network.name;
    report.flipsPerMillionMacs = flips_per_million_macs;
    report.seed = seed;

    functional::Tensor3 clean = input;
    functional::Tensor3 faulted = input;
    for (std::size_t i = 0; i < pipeline.layers.size(); ++i) {
        const functional::InferenceLayer &layer = pipeline.layers[i];
        if (layer.flattenBefore) {
            clean = functional::flattenActivations(clean);
            faulted = functional::flattenActivations(faulted);
        }

        const functional::Tensor3 clean_conv =
            functional::goldenLayerConv(clean, layer);
        functional::Tensor3 faulted_conv =
            functional::goldenLayerConv(faulted, layer);

        const std::uint64_t flips = (std::uint64_t)std::llround(
            (double)layer.shape.macCount() * flips_per_million_macs /
            1e6);
        if (flips > 0) {
            Rng flip_rng(streamSeed(seed, kFlipStreamBase + i));
            injectFlips(faulted_conv, flips, flip_rng,
                        layer.postShift + 7);
        }

        clean = functional::applyPostOps(clean_conv, layer);
        faulted = functional::applyPostOps(faulted_conv, layer);

        LayerErrorStats stats = compareActivations(clean, faulted);
        stats.layer = layer.shape.name;
        stats.flips = flips;
        report.layers.push_back(std::move(stats));
    }
    return report;
}

} // namespace reliability
} // namespace supernpu
