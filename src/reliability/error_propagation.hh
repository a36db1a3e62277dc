/**
 * @file
 * Numerical error propagation of transient SFQ pulse drops through
 * the functional inference path.
 *
 * The cycle-level injector answers "what do faults cost in time";
 * this module answers "what do they cost in output quality". A pulse
 * drop is modeled at the dataflow level as a single-bit flip in a
 * layer's raw convolution output (a psum corrupted inside the PE
 * array before requantization). Flips are injected at a configurable
 * rate per million MACs, the corrupted activations run on through
 * the remaining layers, and clean vs faulted activations are
 * compared per layer — showing how much the int8 requantize / ReLU /
 * pool post-ops mask, and how much survives to the logits.
 *
 * Everything is seeded: weights, input, and every layer's flip
 * positions each draw from their own streamSeed stream, so reports
 * are byte-identical across runs and machines.
 */

#ifndef SUPERNPU_RELIABILITY_ERROR_PROPAGATION_HH
#define SUPERNPU_RELIABILITY_ERROR_PROPAGATION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dnn/layer.hh"

namespace supernpu {
namespace reliability {

/** Clean-vs-faulted activation comparison after one layer. */
struct LayerErrorStats
{
    std::string layer;
    std::uint64_t flips = 0;   ///< bit flips injected in this layer
    std::uint64_t outputs = 0; ///< activations compared
    std::uint64_t wrongOutputs = 0;
    double fracWrong = 0.0;    ///< wrongOutputs / outputs
    double meanAbsError = 0.0; ///< mean |faulted - clean|
    std::int32_t maxAbsError = 0;
};

/** Whole-network error-propagation result. */
struct ErrorPropagationReport
{
    std::string network;
    double flipsPerMillionMacs = 0.0;
    std::uint64_t seed = 0;
    std::vector<LayerErrorStats> layers;

    /** Total bit flips injected across the network. */
    std::uint64_t totalFlips() const;
    /** Error stats at the network output (the logits). */
    const LayerErrorStats &final() const;
};

/**
 * Whether the network can run through the functional path at all:
 * the functional pipeline chains layers sequentially (re-inserting
 * pooling and flattening), so networks whose shape graph branches —
 * residual projections, inception cells — cannot be walked. Mirrors
 * functional::buildPipeline's shape chaining without panicking.
 */
bool canPropagate(const dnn::Network &network);

/**
 * The highest flip rate propagateErrors() accepts: one flip per MAC.
 * Each flip is injected one by one, so the bound also caps the work.
 */
constexpr double kMaxFlipsPerMillionMacs = 1e6;

/**
 * Run one input through the network twice — clean and with pulse
 * drops injected at `flips_per_million_macs` into every layer's raw
 * conv output — and report the per-layer activation divergence.
 * A rate of 0 injects nothing and every layer reports zero error.
 * A negative, non-finite or above-kMaxFlipsPerMillionMacs rate is a
 * fatal(). The network must satisfy canPropagate().
 */
ErrorPropagationReport
propagateErrors(const dnn::Network &network,
                double flips_per_million_macs,
                std::uint64_t seed = 0x5f0be7f1122026ull);

} // namespace reliability
} // namespace supernpu

#endif // SUPERNPU_RELIABILITY_ERROR_PROPAGATION_HH
