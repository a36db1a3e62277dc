/**
 * @file
 * Tensor-parallel shard geometry: one layer's filters split across
 * T chips.
 *
 * Each of T chips holds outChannels/T of every layer's filters and
 * computes the corresponding ofmap channel slice over the full
 * ifmap; after each layer the slices are ring all-reduced so every
 * chip again holds the full activation tensor for the next layer.
 * (A single full-ofmap all-reduce per layer conservatively covers
 * both the row-parallel partial-sum combine and the column-parallel
 * slice exchange of the usual Megatron-style split — the model does
 * not track which of the two a layer would use.)
 *
 * Shard geometry is *re-simulated*, not scaled: shardNetwork()
 * shrinks every layer's outChannels to the widest ceil(K/T) share
 * (depthwise layers shrink both channel dims — the mapper requires
 * in == out), and HybridPlanner runs the shrunk network through
 * NpuSimulator via the shared SimCache. The widest shard is the
 * slowest by construction, so per layer the time is
 *
 *   shardCycles(widest shard) + allReduce(full ofmap, T chips).
 *
 * T=1 keeps the original network object: same hash, same cache
 * entry, zero collective — byte-identical to the single-chip path.
 */

#ifndef SUPERNPU_SHARDING_TENSOR_SHARD_HH
#define SUPERNPU_SHARDING_TENSOR_SHARD_HH

#include <cstdint>

#include "dnn/layer.hh"

namespace supernpu {
namespace sharding {

/** a + b clamped to UINT64_MAX — cycle/byte totals never wrap. */
std::uint64_t saturatingAdd(std::uint64_t a, std::uint64_t b);

/**
 * The widest of `shards` near-equal shares of `channels` >= 1 filters:
 * ceil(channels / shards), and at least one filter per chip.
 */
inline int
widestShare(int channels, int shards)
{
    return (channels - 1) / shards + 1;
}

/**
 * The T-way shard of `network`: every layer's outChannels shrunk to
 * the widest ceil share (depthwise: both channel dims), named
 * `<network>/tp` for every T > 1, so two T values with the same
 * shares give the same network and the same cache keys. T=1 returns
 * the original object so the cache key — and therefore the ledger —
 * is identical to the unsharded path. T larger than the narrowest
 * layer's channel count leaves idle chips on that layer; the widest
 * share is still what the returned network models.
 */
dnn::Network shardNetwork(const dnn::Network &network, int shards);

} // namespace sharding
} // namespace supernpu

#endif // SUPERNPU_SHARDING_TENSOR_SHARD_HH
