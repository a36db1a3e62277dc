/**
 * @file
 * Thread-safe memoized cache of cycle-level simulation results.
 *
 * The cycle simulator is pure: NpuSimulator::run(network, batch) is
 * fully determined by (network shapes, NpuConfig, batch). Sweeps
 * revisit the same points constantly — the explorer scores every
 * workload at every candidate, the ablation benches re-run the Table
 * I configs, and the serving simulator's service model needs one
 * simulation per distinct batch size — so results are memoized here
 * under a key of (workload hash, config hash, batch).
 *
 * The store is a common/memo.hh SingleFlightMemo: safe for
 * concurrent use from a ThreadPool sweep, with concurrent misses on
 * the same key collapsed into one simulation whose waiters count as
 * hits, so hit/miss/eviction totals are identical at any job count
 * (the parallel planner and check sweeps embed them in byte-compared
 * ledgers). Entries are evicted least-recently-used past
 * `maxEntries`; a shared_ptr<const SimResult> stays valid even if it
 * is evicted while a caller still reads it.
 */

#ifndef SUPERNPU_NPUSIM_SIM_CACHE_HH
#define SUPERNPU_NPUSIM_SIM_CACHE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/memo.hh"
#include "dnn/layer.hh"
#include "estimator/npu_config.hh"
#include "result.hh"
#include "sim.hh"

namespace supernpu {
namespace npusim {

/**
 * Structural hash of one layer: its name, then every shape field,
 * so any change that can alter the layer's simulation changes the
 * hash.
 */
std::uint64_t hashLayer(const dnn::Layer &layer);

/**
 * Key of a network named `name` whose layers are the contiguous run
 * `layer_hashes[first..last]` (inclusive; hashLayer values): the
 * name, the run length and each layer hash, in order. Nothing
 * outside the run participates, so a pipeline stage is keyed from
 * its source network's layer hashes without copying its layers, and
 * equal runs under equal names share a key wherever they were cut.
 */
std::uint64_t hashLayerRange(const std::string &name,
                             const std::vector<std::uint64_t> &layer_hashes,
                             int first, int last);

/**
 * Structural hash of a network: hashLayerRange over all its layers
 * under its own name, so any change that can alter simulation
 * results changes the hash.
 */
std::uint64_t hashNetwork(const dnn::Network &network);

/** Structural hash of an NPU configuration (every field). */
std::uint64_t hashConfig(const estimator::NpuConfig &config);

/**
 * Hash of the full estimated design point: the config hash mixed
 * with every estimate field the cycle simulator reads (frequency,
 * buffer geometry, bandwidth-derived stalls). Two identical
 * NpuConfigs estimated under different cell libraries (RSFQ vs
 * ERSFQ, different feature sizes) hash differently — this, not
 * hashConfig, is what cache keys must be built from.
 */
std::uint64_t hashEstimate(const estimator::NpuEstimate &estimate);

/** Cache key: which simulation a result belongs to. */
struct SimKey
{
    std::uint64_t networkHash = 0;
    std::uint64_t configHash = 0; ///< hashEstimate of the design point
    int batch = 0;
    /**
     * Hash of the fault schedule injected into the run
     * (reliability::FaultSchedule::hash()); 0 for a clean run. Keeps
     * faulted and clean simulations of the same design point from
     * ever colliding, even when the injected faults happen not to
     * change the degraded estimate.
     */
    std::uint64_t faultHash = 0;

    bool operator==(const SimKey &other) const
    {
        return networkHash == other.networkHash &&
               configHash == other.configHash &&
               batch == other.batch && faultHash == other.faultHash;
    }
};

/** Monotonically-counted cache statistics. */
using SimCacheStats = MemoStats;

/** Thread-safe LRU-memoized store of SimResults. */
class SimCache
{
  public:
    /** @param max_entries LRU capacity; 0 means unbounded. */
    explicit SimCache(std::size_t max_entries = kDefaultMaxEntries);

    /**
     * The memoizing entry point: return the cached result for
     * (network, sim's config, batch), running the simulation on this
     * thread if it is not cached yet.
     */
    std::shared_ptr<const SimResult>
    getOrRun(const NpuSimulator &sim, const dnn::Network &network,
             int batch);

    /**
     * Same, with the hashes precomputed by the caller — the serving
     * service model hashes its fixed (network, config) once and
     * avoids rehashing on every lookup.
     */
    std::shared_ptr<const SimResult>
    getOrRun(const SimKey &key, const NpuSimulator &sim,
             const dnn::Network &network);

    /**
     * Generic memoizing entry point: return the cached result for
     * `key`, invoking `compute` on this thread when absent. The
     * reliability injector uses this to cache fault-augmented
     * results under fault-schedule-qualified keys; getOrRun is sugar
     * over it. `compute` must be deterministic for the key and must
     * not re-enter the cache for the same key (it may freely compute
     * through the cache for *other* keys — the in-flight wait is per
     * key, never global).
     */
    std::shared_ptr<const SimResult>
    getOrCompute(const SimKey &key,
                 const std::function<SimResult()> &compute);

    /** Lookup without simulating; null when absent. Counts a hit or
     *  a miss. */
    std::shared_ptr<const SimResult> find(const SimKey &key)
    {
        return _memo.find(key);
    }

    /** Entries currently resident. */
    std::size_t size() const { return _memo.size(); }

    /** Hit/miss/eviction counters since construction or clear(). */
    SimCacheStats stats() const { return _memo.stats(); }

    /** Drop every entry and reset the counters. */
    void clear() { _memo.clear(); }

    /**
     * The process-wide cache every sweep shares by default, so e.g.
     * an explore sweep warms the serving service model's entries.
     */
    static SimCache &global();

    static constexpr std::size_t kDefaultMaxEntries = 4096;

  private:
    struct KeyHash
    {
        std::size_t operator()(const SimKey &key) const;
    };

    SingleFlightMemo<SimKey, SimResult, KeyHash> _memo;
};

} // namespace npusim
} // namespace supernpu

#endif // SUPERNPU_NPUSIM_SIM_CACHE_HH
