/**
 * @file
 * Hybrid DP×TP×PP planner implementation.
 */

#include "planner.hh"

#include <algorithm>
#include <map>
#include <utility>

#include "collective.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "npusim/batch.hh"
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

namespace {

/** Cycles in seconds at `frequency_ghz`; every plan figure uses it. */
double
cyclesToSec(std::uint64_t cycles, double frequency_ghz)
{
    return (double)cycles / (frequency_ghz * 1e9);
}

/** Per-layer ring all-reduce cycles of `shards` chips (0 at T = 1). */
std::vector<std::uint64_t>
allReduceCycles(const partition::LinkConfig &link, int shards,
                const std::vector<std::uint64_t> &reduce_bytes,
                double frequency_ghz)
{
    std::vector<std::uint64_t> cycles(reduce_bytes.size(), 0);
    if (shards > 1) {
        for (std::size_t l = 0; l < cycles.size(); ++l)
            cycles[l] = allReduceCost(link, shards, reduce_bytes[l],
                                      frequency_ghz)
                            .cycles;
    }
    return cycles;
}

/**
 * Overlay each stage's in-range TP all-reduce cycles onto its
 * occupancy and derive bottleneck, fill, interval and latency over
 * the overlay. Reads plan.gatherCycles; writes every per-K field
 * except plan.pipeline itself.
 */
void
overlayCollectives(const partition::PartitionPlan &pipeline,
                   const std::vector<std::uint64_t> &reduce_cycles,
                   ShardPlan &plan)
{
    const int k = pipeline.stageCount();
    plan.pipelineStages = k;
    plan.stageCollectiveCycles.assign(k, 0);
    plan.stageOccupancyCycles.assign(k, 0);
    plan.tensorCollectiveCycles = 0;
    plan.fillCycles = 0;
    plan.bottleneckCycles = 0;
    for (int s = 0; s < k; ++s) {
        const partition::PipelineStage &stage = pipeline.stages[s];
        std::uint64_t coll = 0;
        for (int l = stage.firstLayer; l <= stage.lastLayer; ++l)
            coll = saturatingAdd(coll, reduce_cycles[l]);
        plan.stageCollectiveCycles[s] = coll;
        plan.tensorCollectiveCycles =
            saturatingAdd(plan.tensorCollectiveCycles, coll);
        const std::uint64_t occ =
            saturatingAdd(stage.occupancyCycles(), coll);
        plan.stageOccupancyCycles[s] = occ;
        plan.fillCycles = saturatingAdd(plan.fillCycles, occ);
        plan.bottleneckCycles = std::max(plan.bottleneckCycles, occ);
    }

    // The gather shares the link fabric with the next batch's
    // compute, so whichever is slower paces steady state.
    plan.intervalCycles =
        std::max(plan.bottleneckCycles, plan.gatherCycles);
    plan.latencyCycles =
        saturatingAdd(plan.fillCycles, plan.gatherCycles);
}

} // namespace

double
PlanRow::intervalSec() const
{
    return cyclesToSec(intervalCycles, frequencyGhz);
}

double
PlanRow::latencySec() const
{
    return cyclesToSec(latencyCycles, frequencyGhz);
}

double
PlanRow::throughput() const
{
    return (double)batch / intervalSec();
}

double
ShardPlan::intervalSec() const
{
    return cyclesToSec(intervalCycles, frequencyGhz);
}

double
ShardPlan::latencySec() const
{
    return cyclesToSec(latencyCycles, frequencyGhz);
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

PlanRow
ShardPlan::row() const
{
    PlanRow row;
    row.dataParallel = dataParallel;
    row.tensorShards = tensorShards;
    row.pipelineStages = pipelineStages;
    row.batch = batch;
    row.frequencyGhz = frequencyGhz;
    row.intervalCycles = intervalCycles;
    row.latencyCycles = latencyCycles;
    row.tensorCollectiveCycles = tensorCollectiveCycles;
    row.gatherCycles = gatherCycles;
    return row;
}

HybridPlanner::HybridPlanner(const estimator::NpuEstimate &estimate,
                             partition::LinkConfig link,
                             npusim::SimCache *cache)
    : _partitioner(estimate, link, cache)
{
}

HybridPlanner::ClassSplits
HybridPlanner::splitClass(const dnn::Network &network,
                          int tensor_shards, int share,
                          int first_stages, int last_stages,
                          npusim::SimCache *cache) const
{
    // PP splits of the shard network: one cut DP to the deepest K,
    // every shallower K read off the same table. The partitioner
    // re-simulates every chosen stage of the shrunk geometry; its
    // cut search does not see the TP overlay (documented
    // approximation).
    const dnn::Network shard_net = shardNetwork(network, tensor_shards);
    partition::CutTable cuts =
        _partitioner.cutTable(shard_net, last_stages, share, cache);

    // Every TP layer all-reduces its full ofmap at the share.
    ClassSplits splits;
    splits.reduceBytes.assign(network.layers.size(), 0);
    if (tensor_shards > 1) {
        for (std::size_t l = 0; l < network.layers.size(); ++l)
            splits.reduceBytes[l] =
                partition::activationBytes(network.layers[l], share);
    }
    const int k_first = std::min(first_stages, cuts.maxStages);
    splits.pipelines.reserve(cuts.maxStages - k_first + 1);
    for (int stages = k_first; stages <= cuts.maxStages; ++stages)
        splits.pipelines.push_back(_partitioner.partition(cuts, stages));
    return splits;
}

ShardPlan
HybridPlanner::memberBase(const dnn::Network &network,
                          int data_parallel, int tensor_shards,
                          int batch, const ClassSplits &splits) const
{
    // Every split carries the design point of the widest shard's
    // run at the replica share.
    const partition::PartitionPlan &split = splits.pipelines.front();
    ShardPlan plan;
    plan.networkName = network.name;
    plan.configName = split.configName;
    plan.dataParallel = data_parallel;
    plan.tensorShards = tensor_shards;
    plan.batch = batch;
    plan.replicaShare = (batch + data_parallel - 1) / data_parallel;
    plan.frequencyGhz = split.frequencyGhz;
    plan.link = _partitioner.link();
    for (std::uint64_t bytes : splits.reduceBytes)
        plan.tensorCollectiveBytes =
            saturatingAdd(plan.tensorCollectiveBytes, bytes);
    plan.peakMacPerSec = _partitioner.estimate().peakMacPerSec;

    // DP gather of the full batch's final outputs across replicas.
    if (data_parallel > 1) {
        plan.gatherBytes = partition::activationBytes(
            network.layers.back(), batch);
        plan.gatherCycles =
            allGatherCost(plan.link, data_parallel, plan.gatherBytes,
                          plan.frequencyGhz)
                .cycles;
    }
    return plan;
}

ShardPlan
HybridPlanner::evaluate(const dnn::Network &network,
                        int data_parallel, int tensor_shards,
                        int pipeline_stages, int batch) const
{
    perf::Scope perf_scope("planner.evaluate");
    network.check();
    if (data_parallel < 1 || tensor_shards < 1 || pipeline_stages < 1)
        fatal("parallelism degrees must be positive, got DP=",
              data_parallel, " TP=", tensor_shards,
              " PP=", pipeline_stages);
    if (batch < 1)
        fatal("batch must be at least 1, got ", batch);
    if (data_parallel > batch) {
        warn("batch ", batch, " cannot feed ", data_parallel,
             " data-parallel replicas; clamping to ", batch);
        data_parallel = batch;
    }

    const int share = (batch + data_parallel - 1) / data_parallel;
    ClassSplits splits = splitClass(network, tensor_shards, share,
                                    pipeline_stages, pipeline_stages,
                                    nullptr);
    ShardPlan plan = memberBase(network, data_parallel, tensor_shards,
                                batch, splits);

    // The documented baseline is the FULL batch on one chip, not the
    // replica share. Cache-hit for R=1 (share == batch) and T=1.
    const auto solo = _partitioner.solo(network, batch);
    plan.soloCycles = solo->totalCycles;
    plan.macOpsPerBatch = solo->macOps;
    plan.onChipBatch =
        npusim::maxBatch(estimate().config, estimate(), network);

    plan.pipeline = std::move(splits.pipelines.front());
    overlayCollectives(plan.pipeline,
                       allReduceCycles(plan.link, tensor_shards,
                                       splits.reduceBytes,
                                       plan.frequencyGhz),
                       plan);
    return plan;
}

PlanSearch
HybridPlanner::plan(const dnn::Network &network, int chip_budget,
                    int batch, PlanObjective objective,
                    int jobs) const
{
    if (chip_budget < 1)
        fatal("chip budget must be at least 1, got ", chip_budget);
    if (chip_budget > kMaxPlanChips)
        fatal("chip budget ", chip_budget,
              " exceeds the planner's limit of ", kMaxPlanChips,
              " chips");
    if (batch < 1)
        fatal("batch must be at least 1, got ", batch);
    network.check();
    perf::Scope perf_scope("planner.plan");

    PlanSearch search;
    search.objective = objective;
    search.chipBudget = chip_budget;

    // Shard geometry ids by T: shardNetwork builds equal networks
    // for equal per-layer widestShare. A share never grows with T,
    // so equal geometries are runs of consecutive T and one
    // comparison with the previous T finds them. T = 1 keeps the
    // original network, under its own name, so it is always a
    // geometry of its own.
    std::vector<int> geometry(chip_budget + 1, 0);
    {
        std::vector<int> shares, last_shares;
        int geometries = 0;
        for (int t = 1; t <= chip_budget; ++t) {
            shares.clear();
            for (const dnn::Layer &layer : network.layers)
                shares.push_back(widestShare(layer.outChannels, t));
            if (t <= 2 || shares != last_shares)
                ++geometries;
            geometry[t] = geometries - 1;
            std::swap(shares, last_shares);
        }
    }

    // Degrees a clamp would fold onto an already-enumerated triple
    // are skipped up front: R beyond the batch and K beyond the
    // layer count only duplicate rows (and spam clamp warns). Each
    // (R, T) is a member of the class of its (geometry, share) and
    // owns the rows [offset, offset + maxStages) of `evaluated`.
    struct Member
    {
        int r = 1, t = 1, maxStages = 1;
        std::size_t offset = 0;
    };
    struct Class
    {
        int t = 1, share = 1, maxStages = 1;
        std::vector<Member> members;
    };
    std::vector<Class> classes;
    std::map<std::pair<int, int>, std::size_t> class_index;
    const int max_r = std::min(chip_budget, batch);
    const int max_k = (int)network.layers.size();
    std::size_t triples = 0;
    for (int r = 1; r <= max_r; ++r) {
        const int share = (batch + r - 1) / r;
        for (int t = 1; r * t <= chip_budget; ++t) {
            const int k = std::min(chip_budget / (r * t), max_k);
            const auto [slot, fresh] = class_index.try_emplace(
                {geometry[t], share}, classes.size());
            if (fresh)
                classes.push_back(Class{t, share, k, {}});
            Class &cls = classes[slot->second];
            cls.maxStages = std::max(cls.maxStages, k);
            cls.members.push_back(Member{r, t, k, triples});
            triples += (std::size_t)k;
        }
    }

    // Fan the classes across the pool. Each writes only its members'
    // rows, at offsets fixed by the enumeration, so the row list is
    // the serial walk's however the work interleaves. The search's
    // simulations go through an unbounded cache it owns: a bounded
    // one would evict in thread order, and its tallies would then
    // depend on `jobs`.
    search.evaluated.resize(triples);
    {
        npusim::SimCache sims(0);
        ThreadPool pool(jobs < 0 ? 1 : jobs);
        pool.parallelFor(classes.size(), [&](std::size_t i) {
            const Class &cls = classes[i];
            const ClassSplits splits = splitClass(
                network, cls.t, cls.share, 1, cls.maxStages, &sims);
            for (const Member &member : cls.members) {
                ShardPlan plan = memberBase(network, member.r,
                                            member.t, batch, splits);
                const std::vector<std::uint64_t> reduce =
                    allReduceCycles(plan.link, member.t,
                                    splits.reduceBytes,
                                    plan.frequencyGhz);
                for (int k = 1; k <= member.maxStages; ++k) {
                    overlayCollectives(splits.pipelines[k - 1], reduce,
                                       plan);
                    search.evaluated[member.offset + k - 1] =
                        plan.row();
                }
            }
        });
    }
    if (perf::enabled()) {
        static perf::Counter &candidates =
            perf::counter("planner.candidates");
        static perf::Counter &evaluations =
            perf::counter("planner.evaluations");
        candidates.add(triples);
        evaluations.add(triples);
    }

    // First strictly better wins: lexicographic (R,T,K) order makes
    // ties deterministic and biases toward simpler placements.
    for (int i = 1; i < (int)search.evaluated.size(); ++i) {
        const PlanRow &cand = search.evaluated[i];
        const PlanRow &best = search.evaluated[search.bestIndex];
        const bool better =
            objective == PlanObjective::Throughput
                ? cand.throughput() > best.throughput()
                : cand.latencySec() < best.latencySec();
        if (better)
            search.bestIndex = i;
    }

    // Only the winner is rebuilt in full, through the planner's own
    // cache, so best() is exactly what evaluate() returns.
    const PlanRow &best = search.evaluated[search.bestIndex];
    search.winner = evaluate(network, best.dataParallel,
                             best.tensorShards, best.pipelineStages,
                             batch);
    SUPERNPU_ASSERT(search.winner.intervalCycles == best.intervalCycles &&
                        search.winner.latencyCycles ==
                            best.latencyCycles,
                    "rebuilt winner disagrees with its search row");
    return search;
}

} // namespace sharding
} // namespace supernpu
