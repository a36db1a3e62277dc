/**
 * @file
 * Simulation-result cache implementation.
 */

#include "sim_cache.hh"

#include "common/logging.hh"
#include "perf/profile.hh"

namespace supernpu {
namespace npusim {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

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
    for (char c : text) {
        hash ^= (unsigned char)c;
        hash *= kFnvPrime;
    }
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
    std::uint64_t hash = kFnvOffset;
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
    std::uint64_t hash = kFnvOffset;
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
    std::uint64_t hash = kFnvOffset;
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
    std::uint64_t hash = kFnvOffset;
    mix(hash, key.networkHash);
    mix(hash, key.configHash);
    mix(hash, (std::uint64_t)key.batch);
    mix(hash, key.faultHash);
    return (std::size_t)hash;
}

SimCache::SimCache(std::size_t max_entries) : _maxEntries(max_entries)
{
}

SimCache &
SimCache::global()
{
    static SimCache cache;
    return cache;
}

std::shared_ptr<const SimResult>
SimCache::peekLocked(const SimKey &key)
{
    const auto it = _index.find(key);
    if (it == _index.end())
        return nullptr;
    _lru.splice(_lru.begin(), _lru, it->second);
    return it->second->result;
}

void
SimCache::countHitLocked()
{
    ++_stats.hits;
    if (perf::enabled()) {
        static perf::Counter &hits = perf::counter("simCache.hits");
        hits.add(1);
    }
}

void
SimCache::countMissLocked()
{
    ++_stats.misses;
    if (perf::enabled()) {
        static perf::Counter &misses =
            perf::counter("simCache.misses");
        misses.add(1);
    }
}

std::shared_ptr<const SimResult>
SimCache::lookupLocked(const SimKey &key)
{
    auto result = peekLocked(key);
    if (result) {
        countHitLocked();
    } else {
        countMissLocked();
    }
    return result;
}

std::shared_ptr<const SimResult>
SimCache::insertLocked(const SimKey &key,
                       std::shared_ptr<const SimResult> result)
{
    const auto it = _index.find(key);
    if (it != _index.end()) {
        // Another thread simulated the same key first; keep its
        // entry (the results are identical by determinism).
        return it->second->result;
    }
    _lru.push_front(Entry{key, std::move(result)});
    _index.emplace(key, _lru.begin());
    while (_maxEntries != 0 && _lru.size() > _maxEntries) {
        _index.erase(_lru.back().key);
        _lru.pop_back();
        ++_stats.evictions;
    }
    return _lru.front().result;
}

std::shared_ptr<const SimResult>
SimCache::find(const SimKey &key)
{
    std::lock_guard<std::mutex> lock(_mutex);
    return lookupLocked(key);
}

std::shared_ptr<const SimResult>
SimCache::getOrCompute(const SimKey &key,
                       const std::function<SimResult()> &compute)
{
    std::shared_ptr<Flight> flight;
    {
        std::unique_lock<std::mutex> lock(_mutex);
        if (auto result = peekLocked(key)) {
            countHitLocked();
            return result;
        }
        const auto it = _inflight.find(key);
        if (it != _inflight.end()) {
            // Another thread is simulating this exact key. Joining
            // its flight counts as a hit: the serial run would find
            // the leader's freshly-inserted entry resident by the
            // time it reached this lookup, so totals stay identical
            // at any job count.
            countHitLocked();
            flight = it->second;
            _flightDone.wait(lock, [&] { return flight->done; });
            if (flight->error)
                std::rethrow_exception(flight->error);
            return flight->result;
        }
        countMissLocked();
        flight = std::make_shared<Flight>();
        _inflight.emplace(key, flight);
    }
    // Leader: compute outside the lock so misses on *different* keys
    // run in parallel; same-key arrivals wait on the flight above.
    std::shared_ptr<const SimResult> inserted;
    try {
        auto result = std::make_shared<const SimResult>(compute());
        std::lock_guard<std::mutex> lock(_mutex);
        inserted = insertLocked(key, std::move(result));
        flight->result = inserted;
        flight->done = true;
        _inflight.erase(key);
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(_mutex);
            flight->error = std::current_exception();
            flight->done = true;
            _inflight.erase(key);
        }
        _flightDone.notify_all();
        throw;
    }
    _flightDone.notify_all();
    return inserted;
}

std::shared_ptr<const SimResult>
SimCache::getOrRun(const SimKey &key, const NpuSimulator &sim,
                   const dnn::Network &network)
{
    return getOrCompute(
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

std::size_t
SimCache::size() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _lru.size();
}

SimCacheStats
SimCache::stats() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _stats;
}

void
SimCache::clear()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _lru.clear();
    _index.clear();
    _stats = SimCacheStats{};
}

} // namespace npusim
} // namespace supernpu
