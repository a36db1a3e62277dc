/**
 * @file
 * Hybrid DP×TP×PP planner implementation.
 */

#include "planner.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "perf/profile.hh"

namespace supernpu {
namespace sharding {

const char *
planObjectiveName(PlanObjective objective)
{
    switch (objective) {
      case PlanObjective::Throughput:
        return "throughput";
      case PlanObjective::Latency:
        return "latency";
    }
    panic("unknown plan objective");
}

double
ShardPlan::intervalSec() const
{
    return (double)intervalCycles / (frequencyGhz * 1e9);
}

double
ShardPlan::latencySec() const
{
    return (double)latencyCycles / (frequencyGhz * 1e9);
}

double
ShardPlan::throughput() const
{
    return (double)batch / intervalSec();
}

double
ShardPlan::speedup() const
{
    SUPERNPU_ASSERT(intervalCycles > 0, "plan not built");
    return (double)soloCycles / (double)intervalCycles;
}

double
ShardPlan::effectiveMacPerSec() const
{
    return (double)macOpsPerBatch / intervalSec();
}

HybridPlanner::HybridPlanner(const estimator::NpuEstimate &estimate,
                             partition::LinkConfig link,
                             npusim::SimCache *cache)
    : _sharder(estimate, link, cache),
      _partitioner(estimate, link, cache)
{
}

ShardPlan
HybridPlanner::evaluate(const dnn::Network &network,
                        int data_parallel, int tensor_shards,
                        int pipeline_stages, int batch) const
{
    return std::move(evaluateGroup(network, npusim::hashNetwork(network),
                                   data_parallel, tensor_shards,
                                   pipeline_stages, pipeline_stages,
                                   batch)
                         .front());
}

std::vector<ShardPlan>
HybridPlanner::evaluateGroup(const dnn::Network &network,
                             std::uint64_t network_hash,
                             int data_parallel, int tensor_shards,
                             int first_stages, int last_stages,
                             int batch) const
{
    perf::Scope perf_scope("planner.evaluate");
    network.check();
    if (data_parallel < 1 || tensor_shards < 1 || first_stages < 1)
        fatal("parallelism degrees must be positive, got DP=",
              data_parallel, " TP=", tensor_shards,
              " PP=", first_stages);
    SUPERNPU_ASSERT(first_stages <= last_stages,
                    "empty pipeline-depth range");
    if (batch < 1)
        fatal("batch must be at least 1, got ", batch);
    if (data_parallel > batch) {
        warn("batch ", batch, " cannot feed ", data_parallel,
             " data-parallel replicas; clamping to ", batch);
        data_parallel = batch;
    }

    // Everything below up to the per-K loop is independent of K.
    ShardPlan base;
    base.networkName = network.name;
    base.dataParallel = data_parallel;
    base.tensorShards = tensor_shards;
    base.batch = batch;
    base.replicaShare =
        (batch + data_parallel - 1) / data_parallel;
    base.link = _sharder.link();

    // PP splits of the shard network: one cut DP to the deepest K,
    // every shallower K read off the same table. The partitioner
    // re-simulates every chosen stage of the shrunk geometry; its
    // cut search does not see the TP overlay below (documented
    // approximation).
    const dnn::Network shard_net =
        shardNetwork(network, tensor_shards);
    partition::CutTable cuts = _partitioner.cutTable(
        shard_net, last_stages, base.replicaShare);

    // TP geometry and per-layer all-reduce at the replica's share;
    // the table already hashed the shard network.
    const TensorShardResult tensor =
        _sharder.shard(network, network_hash, shard_net,
                       cuts.networkHash, tensor_shards,
                       base.replicaShare);
    base.configName = tensor.configName;
    base.frequencyGhz = tensor.frequencyGhz;
    base.tensorCollectiveBytes = tensor.collectiveBytes;
    base.peakMacPerSec = tensor.peakMacPerSec;

    // DP gather of the full batch's final outputs across replicas.
    if (base.dataParallel > 1) {
        base.gatherBytes = partition::activationBytes(
            network.layers.back(), batch);
        base.gatherCycles =
            allGatherCost(base.link, base.dataParallel,
                          base.gatherBytes, base.frequencyGhz)
                .cycles;
    }

    // The documented baseline is the FULL batch on one chip; the
    // tensor result's solo ran at the replica share, which for R>1
    // is a smaller problem. Cache-hit for R=1 (share == batch).
    const auto solo = _sharder.simulate(network_hash, network, batch);
    base.soloCycles = solo->totalCycles;
    base.macOpsPerBatch = solo->macOps;

    const int k_first = std::min(first_stages, cuts.maxStages);

    std::vector<ShardPlan> plans;
    plans.reserve(cuts.maxStages - k_first + 1);
    for (int stages = k_first; stages <= cuts.maxStages; ++stages) {
        ShardPlan plan = base;
        plan.pipeline = _partitioner.partition(cuts, stages);
        plan.pipelineStages = plan.pipeline.stageCount();

        // Overlay each stage's in-range TP all-reduce cycles onto
        // its occupancy and recompute bottleneck/fill over the
        // overlay.
        const int k = plan.pipelineStages;
        plan.stageCollectiveCycles.assign(k, 0);
        plan.stageOccupancyCycles.assign(k, 0);
        for (int s = 0; s < k; ++s) {
            const partition::PipelineStage &stage =
                plan.pipeline.stages[s];
            std::uint64_t coll = 0;
            for (int l = stage.firstLayer; l <= stage.lastLayer; ++l)
                coll = saturatingAdd(
                    coll, tensor.layers[l].reduceCycles);
            plan.stageCollectiveCycles[s] = coll;
            plan.tensorCollectiveCycles =
                saturatingAdd(plan.tensorCollectiveCycles, coll);
            const std::uint64_t occ =
                saturatingAdd(stage.occupancyCycles(), coll);
            plan.stageOccupancyCycles[s] = occ;
            plan.fillCycles = saturatingAdd(plan.fillCycles, occ);
            plan.bottleneckCycles =
                std::max(plan.bottleneckCycles, occ);
        }

        // The gather shares the link fabric with the next batch's
        // compute, so whichever is slower paces steady state.
        plan.intervalCycles =
            std::max(plan.bottleneckCycles, plan.gatherCycles);
        plan.latencyCycles =
            saturatingAdd(plan.fillCycles, plan.gatherCycles);
        plans.push_back(std::move(plan));
    }
    if (perf::enabled()) {
        static perf::Counter &evaluations =
            perf::counter("planner.evaluations");
        evaluations.add(plans.size());
    }
    return plans;
}

PlanSearch
HybridPlanner::plan(const dnn::Network &network, int chip_budget,
                    int batch, PlanObjective objective,
                    int jobs) const
{
    if (chip_budget < 1)
        fatal("chip budget must be at least 1, got ", chip_budget);
    perf::Scope perf_scope("planner.plan");

    PlanSearch search;
    search.objective = objective;
    search.chipBudget = chip_budget;

    // Degrees a clamp would fold onto an already-enumerated triple
    // are skipped up front: R beyond the batch and K beyond the
    // layer count only duplicate rows (and spam clamp warns). Each
    // (R, T) group covers K = 1..maxStages in one evaluation.
    struct Group
    {
        int r = 1, t = 1, maxStages = 1;
    };
    const int max_r = std::min(chip_budget, batch);
    const int max_k = (int)network.layers.size();
    std::vector<Group> groups;
    std::size_t triples = 0;
    for (int r = 1; r <= max_r; ++r) {
        for (int t = 1; r * t <= chip_budget; ++t) {
            const int k = std::min(chip_budget / (r * t), max_k);
            groups.push_back(Group{r, t, k});
            triples += (std::size_t)k;
        }
    }

    // Fan the groups across the pool. Slot i always holds the i-th
    // group's plans in K order, so flattening the slots in order
    // yields every (R, T, K) triple in enumeration order — the
    // candidate list is byte-identical to the serial walk no matter
    // how the work interleaves.
    const std::uint64_t network_hash = npusim::hashNetwork(network);
    ThreadPool pool(jobs < 0 ? 1 : jobs);
    std::vector<std::vector<ShardPlan>> grouped =
        pool.parallelMap(groups.size(), [&](std::size_t i) {
            const Group &group = groups[i];
            return evaluateGroup(network, network_hash, group.r,
                                 group.t, 1, group.maxStages, batch);
        });
    search.evaluated.reserve(triples);
    for (std::vector<ShardPlan> &plans : grouped)
        for (ShardPlan &plan : plans)
            search.evaluated.push_back(std::move(plan));
    if (perf::enabled()) {
        static perf::Counter &candidates =
            perf::counter("planner.candidates");
        candidates.add(triples);
    }

    // First strictly better wins: lexicographic (R,T,K) order makes
    // ties deterministic and biases toward simpler placements.
    for (int i = 1; i < (int)search.evaluated.size(); ++i) {
        const ShardPlan &cand = search.evaluated[i];
        const ShardPlan &best = search.evaluated[search.bestIndex];
        const bool better =
            objective == PlanObjective::Throughput
                ? cand.throughput() > best.throughput()
                : cand.latencySec() < best.latencySec();
        if (better)
            search.bestIndex = i;
    }
    return search;
}

} // namespace sharding
} // namespace supernpu
