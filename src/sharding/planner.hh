/**
 * @file
 * Hybrid DP×TP×PP parallelism planner over a chip budget.
 *
 * A plan places R data-parallel replicas of a T-way tensor-sharded,
 * K-stage pipelined network on R·T·K chips:
 *
 *  - DP (R): the batch splits into near-equal shares; each replica
 *    group runs the widest share, and the final outputs are ring
 *    all-gathered across replicas.
 *  - TP (T): within a replica, every layer's filters split across T
 *    chips (tensor_shard geometry), adding a per-layer all-reduce.
 *  - PP (K): the T-wide sharded network is cut into K contiguous
 *    stages by partition::Partitioner — genuine stage re-simulation
 *    of the shrunk geometry — with the per-layer TP all-reduce
 *    cycles overlaid onto each stage's occupancy. (Cuts are chosen
 *    by the partitioner *before* the overlay — a documented
 *    approximation; the overlaid occupancies are what the plan
 *    reports.) Stage-boundary transfers cross T parallel per-slice
 *    links, which is exactly what partitioning the shard network
 *    charges.
 *
 * Steady-state interval is max(bottleneck stage occupancy, DP
 * gather); one-batch latency is pipeline fill plus the gather.
 * R=T=K=1 reproduces the single-chip simulation cycle-for-cycle
 * (and, through the shared cache entry, byte-for-byte in ledgers).
 *
 * The planner enumerates every (R, T, K) with R·T·K ≤ budget in
 * lexicographic order and keeps the best under the objective; ties
 * keep the earlier triple, so results are deterministic. It does
 * each distinct piece of work once:
 *
 *  - Classes. Two T values give the same shard network when
 *    ceil(outChannels/T) agrees on every layer, and the shard
 *    network's name carries no T, so its simulation keys — whole
 *    network and every stage range — agree too. A class is one
 *    (shard geometry, replica share) pair. It builds its shard
 *    network once, solves one cut DP to the deepest K of any member
 *    and reads one PartitionPlan per K off it. Each member (R, T)
 *    adds only its own TP all-reduce overlay (T) and DP gather (R).
 *    Stage ranges are keyed by their own layers, so two geometries
 *    that agree on layers i..j also share that stage's simulation.
 *  - Compact rows. PlanSearch::evaluated holds one PlanRow per
 *    triple: the degrees and the cycle counts the objective ranks.
 *    The winner alone is rebuilt in full by evaluate().
 *
 * The classes fan out across a common/parallel ThreadPool and write
 * their members' rows into fixed slots, so the row list is the
 * serial walk's at any job count. The search's simulations go
 * through an unbounded SimCache it owns and drops at the end: a
 * bounded cache would evict in thread order and make its tallies
 * depend on `jobs`. The planner's own cache sees only the winner's
 * rebuild, which runs serially, so `jobs` is a pure wall-clock knob
 * — the search output and its ledgers are byte-identical to the
 * serial walk at any job count.
 */

#ifndef SUPERNPU_SHARDING_PLANNER_HH
#define SUPERNPU_SHARDING_PLANNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "partition/partitioner.hh"
#include "tensor_shard.hh"

namespace supernpu {
namespace sharding {

/** What the planner optimizes across factorizations. */
enum class PlanObjective
{
    Throughput, ///< max steady-state inferences/sec
    Latency,    ///< min one-batch end-to-end latency
};

const char *planObjectiveName(PlanObjective objective);

/**
 * The largest chip budget plan() searches. Enumeration, rows and the
 * class table all grow with the budget, so a larger one is rejected
 * by fatal() before anything is enumerated.
 */
constexpr int kMaxPlanChips = 1 << 16;

/**
 * One searched (R, T, K) candidate: the degrees and the cycle counts
 * the objective ranks, without a plan's per-stage vectors. Its
 * seconds and throughput are computed exactly as ShardPlan's.
 */
struct PlanRow
{
    int dataParallel = 1;   ///< R
    int tensorShards = 1;   ///< T
    int pipelineStages = 1; ///< K
    int batch = 1;          ///< total batch across the group
    double frequencyGhz = 0.0;
    std::uint64_t intervalCycles = 0;
    std::uint64_t latencyCycles = 0;
    std::uint64_t tensorCollectiveCycles = 0;
    std::uint64_t gatherCycles = 0;

    int chips() const
    {
        return dataParallel * tensorShards * pipelineStages;
    }
    double intervalSec() const;
    double latencySec() const;
    /** Steady-state inferences/sec of the group. */
    double throughput() const;
};

/** One evaluated DP×TP×PP placement of a network on a budget. */
struct ShardPlan
{
    std::string networkName;
    std::string configName;
    int dataParallel = 1;   ///< R (after clamping to the batch)
    int tensorShards = 1;   ///< T
    int pipelineStages = 1; ///< K (after the partitioner's clamp)
    int batch = 1;          ///< total batch across the group
    int replicaShare = 1;   ///< ceil(batch/R) per replica
    /**
     * The design point's all-fit batch (npusim::maxBatch). Up to it
     * cycles are subadditive in batch, so a pure-DP plan's speedup
     * is at most R; a larger, spilling batch can beat R.
     */
    int onChipBatch = 1;
    double frequencyGhz = 0.0;
    partition::LinkConfig link;

    /** Chips the plan occupies: R·T·K. */
    int chips() const
    {
        return dataParallel * tensorShards * pipelineStages;
    }

    /** PP split of the T-wide shard network at the replica share. */
    partition::PartitionPlan pipeline;
    /** Per-stage Σ in-stage TP all-reduce cycles (overlay). */
    std::vector<std::uint64_t> stageCollectiveCycles;
    /** Per-stage occupancy + overlay — what paces the pipeline. */
    std::vector<std::uint64_t> stageOccupancyCycles;

    /** Σ stageCollectiveCycles: all TP all-reduces of one batch. */
    std::uint64_t tensorCollectiveCycles = 0;
    /** Σ per-layer full-ofmap all-reduce bytes. */
    std::uint64_t tensorCollectiveBytes = 0;
    /** DP all-gather of the final outputs across replicas. */
    std::uint64_t gatherBytes = 0;
    std::uint64_t gatherCycles = 0;

    /** max stageOccupancyCycles. */
    std::uint64_t bottleneckCycles = 0;
    /** Σ stageOccupancyCycles: one batch through the pipeline. */
    std::uint64_t fillCycles = 0;
    /** max(bottleneck, gather): steady-state initiation interval. */
    std::uint64_t intervalCycles = 0;
    /** fill + gather: first batch end to end. */
    std::uint64_t latencyCycles = 0;
    /** Full batch on ONE chip at this design point (baseline). */
    std::uint64_t soloCycles = 0;
    /** Full-batch MACs across the whole group. */
    std::uint64_t macOpsPerBatch = 0;
    /** Per-chip peak MAC/s of the design point (audit ceiling). */
    double peakMacPerSec = 0.0;

    double intervalSec() const;
    double latencySec() const;
    /** Steady-state inferences/sec of the group. */
    double throughput() const;
    /**
     * soloCycles / intervalCycles. Can exceed R·T·K when tensor
     * sharding narrows a layer below the PE-array width and drops
     * whole weight mappings (each shard streams the ifmap fewer
     * times than the solo run). The audited ceiling is group MAC
     * throughput, not the speedup.
     */
    double speedup() const;
    double effectiveMacPerSec() const;
    /** The candidate row this plan ranks as in a search. */
    PlanRow row() const;
};

/** Planner search output: the winner plus every candidate. */
struct PlanSearch
{
    PlanObjective objective = PlanObjective::Throughput;
    int chipBudget = 1;
    /** Every (R,T,K) with R·T·K ≤ budget, enumeration order. */
    std::vector<PlanRow> evaluated;
    /** Index of the winner in `evaluated`: the first strictly best. */
    int bestIndex = 0;
    /** evaluate() of evaluated[bestIndex]'s triple. */
    ShardPlan winner;

    const ShardPlan &best() const { return winner; }
};

/** DP×TP×PP factorization search for one design point. */
class HybridPlanner
{
  public:
    /** @param cache Defaults to npusim::SimCache::global(). */
    explicit HybridPlanner(const estimator::NpuEstimate &estimate,
                           partition::LinkConfig link = {},
                           npusim::SimCache *cache = nullptr);

    /** Evaluate one fixed (R, T, K) placement. */
    ShardPlan evaluate(const dnn::Network &network, int data_parallel,
                       int tensor_shards, int pipeline_stages,
                       int batch) const;

    /**
     * Search every factorization of `chip_budget` chips or fewer;
     * a budget above kMaxPlanChips is a fatal().
     * @param jobs Pool parallelism of the class sweep including the
     *        calling thread; <= 1 runs serially inline, 0 means
     *        every hardware thread. Output is byte-identical at any
     *        value.
     */
    PlanSearch plan(const dnn::Network &network, int chip_budget,
                    int batch, PlanObjective objective,
                    int jobs = 1) const;

    const estimator::NpuEstimate &estimate() const
    {
        return _partitioner.estimate();
    }
    const partition::LinkConfig &link() const
    {
        return _partitioner.link();
    }

    /** The shared partitioner's layer-timing memo counters. */
    partition::LayerTimingCacheStats timingCacheStats() const
    {
        return _partitioner.timingCacheStats();
    }

  private:
    /**
     * What every member (R, T) of one class shares: the shard
     * network's pipeline split at each K in [first, last] (clamped
     * to the layer count) and the per-layer all-reduce bytes at the
     * replica share (zero at T = 1).
     */
    struct ClassSplits
    {
        std::vector<std::uint64_t> reduceBytes;
        std::vector<partition::PartitionPlan> pipelines;
    };

    /**
     * Shard `network` T ways and split it at `share`, simulating
     * through `cache` (null: the planner's cache).
     */
    ClassSplits splitClass(const dnn::Network &network,
                           int tensor_shards, int share,
                           int first_stages, int last_stages,
                           npusim::SimCache *cache) const;

    /**
     * Everything of member (R, T)'s plan that no K changes: degrees,
     * design point, TP bytes and the DP gather. Leaves the solo
     * baseline and the pipeline to the caller.
     */
    ShardPlan memberBase(const dnn::Network &network, int data_parallel,
                         int tensor_shards, int batch,
                         const ClassSplits &splits) const;

    partition::Partitioner _partitioner;
};

} // namespace sharding
} // namespace supernpu

#endif // SUPERNPU_SHARDING_PLANNER_HH
