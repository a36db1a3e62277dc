/**
 * @file
 * Tensor-parallel shard construction.
 */

#include "tensor_shard.hh"

#include <limits>

#include "common/logging.hh"

namespace supernpu {
namespace sharding {

std::uint64_t
saturatingAdd(std::uint64_t a, std::uint64_t b)
{
    constexpr std::uint64_t kMax =
        std::numeric_limits<std::uint64_t>::max();
    return a > kMax - b ? kMax : a + b;
}

dnn::Network
shardNetwork(const dnn::Network &network, int shards)
{
    SUPERNPU_ASSERT(shards >= 1, "shard count must be positive");
    if (shards == 1) {
        // Degree 1: the original object, so its simulation hits
        // (or seeds) the exact cache entry the single-chip path
        // uses — the byte-identity guarantee.
        return network;
    }
    // The name carries no T: two degrees that split every layer
    // alike build the same network, and so share its simulation and
    // every stage range's (the planner groups them into one class).
    dnn::Network shard;
    shard.name = network.name + "/tp";
    shard.layers.reserve(network.layers.size());
    for (const dnn::Layer &layer : network.layers) {
        dnn::Layer s = layer;
        // Widest ceil share of the filters; at least one filter per
        // chip even when T exceeds the layer's channel count (the
        // surplus chips idle on that layer).
        s.outChannels = widestShare(layer.outChannels, shards);
        if (layer.kind == dnn::LayerKind::DepthwiseConv) {
            // Depthwise filters are per-channel: splitting the
            // filters splits the input channels with them, and the
            // mapper requires in == out.
            s.inChannels = s.outChannels;
        }
        shard.layers.push_back(std::move(s));
    }
    shard.check();
    return shard;
}

} // namespace sharding
} // namespace supernpu
