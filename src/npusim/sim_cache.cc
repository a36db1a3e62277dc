/**
 * @file
 * Simulation-result cache implementation.
 */

#include "sim_cache.hh"

#include "common/hash.hh"
#include "common/logging.hh"

namespace supernpu {
namespace npusim {

namespace {

/**
 * One multiply-xorshift step over a whole 64-bit word. Every step is
 * a bijection of the running hash, so sequences that differ in one
 * word never collide, at an eighth of the cost of byte-wise FNV.
 */
void
mix(std::uint64_t &hash, std::uint64_t word)
{
    hash = (hash ^ word) * 0x9e3779b97f4a7c15ull;
    hash ^= hash >> 32;
}

/** FNV-1a over a string's bytes (length-delimited). */
void
mix(std::uint64_t &hash, const std::string &text)
{
    mix(hash, (std::uint64_t)text.size());
    fnv1aBytes(hash, text.data(), text.size());
}

/** Doubles participate bit-exactly. */
void
mixDouble(std::uint64_t &hash, double value)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    __builtin_memcpy(&bits, &value, sizeof(bits));
    mix(hash, bits);
}

/** A network key: its name, layer count and layer hashes in order. */
std::uint64_t
combineLayers(const std::string &name, const std::uint64_t *layer_hashes,
              std::size_t count)
{
    std::uint64_t hash = kFnv1aOffset;
    mix(hash, name);
    mix(hash, (std::uint64_t)count);
    for (std::size_t l = 0; l < count; ++l)
        mix(hash, layer_hashes[l]);
    return hash;
}

} // namespace

std::uint64_t
hashLayer(const dnn::Layer &layer)
{
    std::uint64_t hash = kFnv1aOffset;
    mix(hash, layer.name);
    mix(hash, (std::uint64_t)layer.kind);
    mix(hash, (std::uint64_t)layer.inChannels);
    mix(hash, (std::uint64_t)layer.inHeight);
    mix(hash, (std::uint64_t)layer.inWidth);
    mix(hash, (std::uint64_t)layer.outChannels);
    mix(hash, (std::uint64_t)layer.kernelH);
    mix(hash, (std::uint64_t)layer.kernelW);
    mix(hash, (std::uint64_t)layer.stride);
    mix(hash, (std::uint64_t)layer.padding);
    return hash;
}

std::uint64_t
hashLayerRange(const std::string &name,
               const std::vector<std::uint64_t> &layer_hashes,
               int first, int last)
{
    SUPERNPU_ASSERT(0 <= first && first <= last &&
                        last < (int)layer_hashes.size(),
                    "layer range [", first, ", ", last,
                    "] outside ", layer_hashes.size(), " layers");
    return combineLayers(name, layer_hashes.data() + first,
                         (std::size_t)(last - first + 1));
}

std::uint64_t
hashNetwork(const dnn::Network &network)
{
    std::vector<std::uint64_t> layer_hashes;
    layer_hashes.reserve(network.layers.size());
    for (const auto &layer : network.layers)
        layer_hashes.push_back(hashLayer(layer));
    return combineLayers(network.name, layer_hashes.data(),
                         layer_hashes.size());
}

std::uint64_t
hashConfig(const estimator::NpuConfig &config)
{
    std::uint64_t hash = kFnv1aOffset;
    mix(hash, config.name);
    mix(hash, (std::uint64_t)config.peWidth);
    mix(hash, (std::uint64_t)config.peHeight);
    mix(hash, (std::uint64_t)config.bitWidth);
    mix(hash, (std::uint64_t)config.regsPerPe);
    mix(hash, config.ifmapBufferBytes);
    mix(hash, (std::uint64_t)config.integratedOutputBuffer);
    mix(hash, config.outputBufferBytes);
    mix(hash, config.psumBufferBytes);
    mix(hash, config.ofmapBufferBytes);
    mix(hash, config.weightBufferBytes);
    mix(hash, (std::uint64_t)config.ifmapDivision);
    mix(hash, (std::uint64_t)config.outputDivision);
    mixDouble(hash, config.memoryBandwidth);
    mix(hash, (std::uint64_t)config.weightDoubleBuffering);
    return hash;
}

std::uint64_t
hashEstimate(const estimator::NpuEstimate &estimate)
{
    std::uint64_t hash = hashConfig(estimate.config);
    mixDouble(hash, estimate.frequencyGhz);
    mixDouble(hash, estimate.peakMacPerSec);
    mix(hash, estimate.ifmapRowLength);
    mix(hash, estimate.ifmapChunkLength);
    mix(hash, estimate.outputRowLength);
    mix(hash, estimate.outputChunkLength);
    return hash;
}

std::size_t
SimCache::KeyHash::operator()(const SimKey &key) const
{
    std::uint64_t hash = kFnv1aOffset;
    mix(hash, key.networkHash);
    mix(hash, key.configHash);
    mix(hash, (std::uint64_t)key.batch);
    mix(hash, key.faultHash);
    return (std::size_t)hash;
}

SimCache::SimCache(std::size_t max_entries)
    : _memo(max_entries, "simCache.hits", "simCache.misses")
{
}

SimCache &
SimCache::global()
{
    static SimCache cache;
    return cache;
}

std::shared_ptr<const SimResult>
SimCache::getOrCompute(const SimKey &key,
                       const std::function<SimResult()> &compute)
{
    return _memo.getOrCompute(key, compute);
}

std::shared_ptr<const SimResult>
SimCache::getOrRun(const SimKey &key, const NpuSimulator &sim,
                   const dnn::Network &network)
{
    return _memo.getOrCompute(
        key, [&] { return sim.run(network, key.batch); });
}

std::shared_ptr<const SimResult>
SimCache::getOrRun(const NpuSimulator &sim, const dnn::Network &network,
                   int batch)
{
    SUPERNPU_ASSERT(batch >= 1, "bad batch ", batch);
    const SimKey key{hashNetwork(network),
                     hashEstimate(sim.estimate()), batch};
    return getOrRun(key, sim, network);
}

} // namespace npusim
} // namespace supernpu
