/**
 * @file
 * Layer-wise network partitioner for multi-chip pipelines.
 *
 * Splits a dnn::Network into K contiguous stages, one per chip,
 * minimizing the cycle cost of the *bottleneck* stage — in a
 * pipeline the slowest stage sets steady-state throughput, so the
 * optimal split is the classic min-max contiguous partition. Stage
 * cost is real simulated cycles: per-layer totals come from one
 * NpuSimulator::run of the whole network (memoized through
 * npusim::SimCache), the DP picks the cuts over those prefix sums
 * plus the outbound link transfer at each candidate boundary, and
 * every chosen stage is then re-simulated exactly as a standalone
 * sub-network — a stage head refills its ifmap buffer from memory
 * and cannot overlap its first weight fetch with a previous layer,
 * just as a real chip receiving activations over the link would.
 *
 * The DP is solved once per (network, batch) up to a stage bound
 * (CutTable); every K up to that bound reads its split off the same
 * table. A stage is a layer range of the source network: its cache
 * key combines the network's per-layer hashes, and the standalone
 * sub-network is built only when the cache misses.
 *
 * K=1 equivalence guarantee: a single-stage partition keys and
 * simulates the original network (same name, same layers), so its
 * stage SimResult is the very cache entry — byte-identical ledgers
 * included — that the single-chip NpuSimulator path produces.
 * Asking for more stages than layers falls back to K = layer count
 * with a warn().
 */

#ifndef SUPERNPU_PARTITION_PARTITIONER_HH
#define SUPERNPU_PARTITION_PARTITIONER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/memo.hh"
#include "dnn/layer.hh"
#include "estimator/npu_estimator.hh"
#include "link_model.hh"
#include "npusim/sim.hh"
#include "npusim/sim_cache.hh"

namespace supernpu {
namespace partition {

/** The cut-search inputs derived from one (network, batch) point. */
struct LayerTimings
{
    std::string configName;
    double frequencyGhz = 0.0;
    /** prefix[l] = Σ simulated cycles of layers [0, l); size n+1. */
    std::vector<double> prefix;
    /** Outbound link occupancy if the boundary sits after layer l;
     *  size n, 0 after the last layer (nothing to ship). */
    std::vector<double> linkAfter;
    std::vector<std::uint64_t> linkCycles; ///< size n
    std::vector<std::uint64_t> linkBytes;  ///< size n

    int layerCount() const { return (int)prefix.size() - 1; }
};

/** Hash of a LayerTimings memo key: (network hash, batch). */
struct LayerTimingKeyHash
{
    std::size_t operator()(const std::pair<std::uint64_t, int> &key) const
    {
        return (std::size_t)(key.first ^
                             (std::uint64_t)(std::uint32_t)key.second *
                                 0x9e3779b97f4a7c15ull);
    }
};

/**
 * The partitioner's memo of LayerTimings. Only (network, batch)
 * determine them — the design point and link are fixed per
 * Partitioner — so planner groups that differ only in R share one
 * derivation. Unbounded: one small vector set per (network, batch)
 * a search touches.
 */
using LayerTimingCache =
    SingleFlightMemo<std::pair<std::uint64_t, int>, LayerTimings,
                     LayerTimingKeyHash>;
using LayerTimingCacheStats = MemoStats;

/** One contiguous run of layers placed on one chip. */
struct PipelineStage
{
    int firstLayer = 0; ///< inclusive index into the source network
    int lastLayer = 0;  ///< inclusive
    /**
     * Cycle simulation of the stage at the plan's batch, run as a
     * standalone sub-network named `<network>[first-last]` (K=1: the
     * original network under its own name).
     */
    std::shared_ptr<const npusim::SimResult> sim;
    std::uint64_t stageCycles = 0; ///< sim->totalCycles
    /** Outbound activation bytes; 0 for the last stage. */
    std::uint64_t linkBytes = 0;
    /** Outbound link occupancy cycles; 0 for the last stage. */
    std::uint64_t linkCycles = 0;

    int layerCount() const { return lastLayer - firstLayer + 1; }

    /**
     * Cycles this stage occupies its chip per batch: compute plus
     * shipping the results forward. The pipeline initiation
     * interval is the max of these across stages.
     */
    std::uint64_t occupancyCycles() const
    {
        return stageCycles + linkCycles;
    }
};

/** A balanced K-stage split of one network on one design point. */
struct PartitionPlan
{
    std::string networkName;
    std::string configName;
    int batch = 1;
    double frequencyGhz = 0.0;
    LinkConfig link;

    std::vector<PipelineStage> stages;

    /** Index of the slowest stage (lowest index on ties). */
    int bottleneckStage = 0;
    /** Occupancy of the bottleneck stage — the initiation interval. */
    std::uint64_t bottleneckCycles = 0;
    /** Σ stage occupancy: fill (and drain) latency of one batch. */
    std::uint64_t fillCycles = 0;

    int stageCount() const { return (int)stages.size(); }

    /** occupancy / bottleneck, in (0, 1]; 1 for the bottleneck. */
    double stageUtilization(int stage) const;

    /** Seconds the first batch takes end-to-end (fill latency). */
    double fillLatencySec() const;

    /** Seconds between steady-state batch completions. */
    double intervalSec() const;
};

/**
 * The min-max cut DP of one (network, batch), solved once up to a
 * stage bound. Row s of the DP reads only row s-1, so the optimal
 * split for every K <= maxStages() reads off the same table, exactly
 * as a DP solved to K alone would find it. The table also holds the
 * per-layer hashes stage cache keys are combined from, and the stage
 * simulations already read off it. It refers to its network, which
 * must outlive it, and serves one thread at a time.
 */
struct CutTable
{
    const dnn::Network *network = nullptr; ///< not owned
    /** Where the table's simulations go; not owned. */
    npusim::SimCache *cache = nullptr;
    int batch = 1;
    int maxStages = 0;
    /** npusim::hashLayer of every layer of the network. */
    std::vector<std::uint64_t> layerHashes;
    /** npusim::hashNetwork of the network, from layerHashes. */
    std::uint64_t networkHash = 0;
    /** The memoized per-layer costs the DP balanced. */
    std::shared_ptr<const LayerTimings> timings;
    /**
     * Row-major (maxStages + 1) x layers: cut[s * layers + j] is the
     * last layer of stage s-1 in the best s-stage split of layers
     * 0..j, or -1 where no split exists (row 1 has no cut).
     */
    std::vector<int> cut;
    /**
     * Stage simulations handed out so far, keyed first << 32 | last.
     * Neighbouring K reuse most of each other's stage ranges (about
     * four lookups in five on a ResNet-50 planner search), and this
     * returns them without another SimCache round trip.
     */
    std::unordered_map<std::uint64_t,
                       std::shared_ptr<const npusim::SimResult>>
        stageSims;

    int layerCount() const { return (int)layerHashes.size(); }

    /** Last layer of each stage of the optimal `stages`-way split. */
    std::vector<int> stageEnds(int stages) const;
};

/** Bottleneck-minimizing contiguous partitioner for one design. */
class Partitioner
{
  public:
    /**
     * @param cache Simulation memo store; defaults to the process-
     *        wide npusim::SimCache::global().
     */
    explicit Partitioner(const estimator::NpuEstimate &estimate,
                         LinkConfig link = {},
                         npusim::SimCache *cache = nullptr);

    /**
     * Solve the cut DP of `network` at `batch` once for every stage
     * count up to `max_stages`, which is clamped to the layer count
     * with a warn() when it exceeds it. The table's simulations go
     * through `cache`, or the partitioner's own cache when null.
     */
    CutTable cutTable(const dnn::Network &network, int max_stages,
                      int batch, npusim::SimCache *cache = nullptr) const;

    /**
     * The optimal `stages`-way plan read off `table`
     * (1 <= stages <= table.maxStages), with every stage simulated
     * and remembered in the table.
     */
    PartitionPlan partition(CutTable &table, int stages) const;

    /**
     * Split `network` into `stages` contiguous stages balanced at
     * the given batch: the stages-row of a table solved to `stages`.
     * `stages` is clamped to the layer count with a warn() when it
     * exceeds it.
     */
    PartitionPlan partition(const dnn::Network &network, int stages,
                            int batch) const;

    /**
     * The whole of `network` at `batch` on one chip, through the
     * partitioner's own cache: the single-chip baseline a
     * multi-chip plan is measured against.
     */
    std::shared_ptr<const npusim::SimResult>
    solo(const dnn::Network &network, int batch) const;

    const estimator::NpuEstimate &estimate() const
    {
        return _sim.estimate();
    }
    const LinkConfig &link() const { return _link; }

    /**
     * Layer-timing memo counters for this partitioner. A planner
     * search shares one Partitioner, so these say how often the
     * R×T×K sweep reused a cut-search derivation instead of
     * re-walking a SimResult; snapshotted into shard ledgers.
     */
    LayerTimingCacheStats timingCacheStats() const
    {
        return _timings.stats();
    }

  private:
    /** Cached whole-network simulation under a precomputed hash. */
    std::shared_ptr<const npusim::SimResult>
    simulate(npusim::SimCache &cache, std::uint64_t network_hash,
             const dnn::Network &network, int batch) const;
    /** Cached simulation of layers [first, last] as a stage. */
    std::shared_ptr<const npusim::SimResult>
    simulateStage(CutTable &table, int first, int last) const;
    /** Derive the cut-search inputs (one memoized simulation). */
    LayerTimings buildTimings(npusim::SimCache &cache,
                              const dnn::Network &network,
                              std::uint64_t network_hash,
                              int batch) const;

    npusim::NpuSimulator _sim;
    LinkConfig _link;
    npusim::SimCache *_cache;
    std::uint64_t _configHash = 0;
    /** partition() is const; the memo mutates under its own lock. */
    mutable LayerTimingCache _timings{0, "partition.timingCache.hits",
                                      "partition.timingCache.misses"};
};

} // namespace partition
} // namespace supernpu

#endif // SUPERNPU_PARTITION_PARTITIONER_HH
