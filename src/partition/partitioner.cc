/**
 * @file
 * Bottleneck-minimizing contiguous partitioner implementation.
 */

#include "partitioner.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace supernpu {
namespace partition {

double
PartitionPlan::stageUtilization(int stage) const
{
    SUPERNPU_ASSERT(stage >= 0 && stage < stageCount(),
                    "stage index out of range");
    SUPERNPU_ASSERT(bottleneckCycles > 0, "plan not built");
    return (double)stages[stage].occupancyCycles() /
           (double)bottleneckCycles;
}

double
PartitionPlan::fillLatencySec() const
{
    return (double)fillCycles / (frequencyGhz * 1e9);
}

double
PartitionPlan::intervalSec() const
{
    return (double)bottleneckCycles / (frequencyGhz * 1e9);
}

std::vector<int>
CutTable::stageEnds(int stages) const
{
    SUPERNPU_ASSERT(stages >= 1 && stages <= maxStages,
                    "stage count ", stages, " outside the table's 1..",
                    maxStages);
    const int n = layerCount();
    std::vector<int> last(stages);
    int j = n - 1;
    for (int s = stages; s >= 1; --s) {
        last[s - 1] = j;
        j = (s > 1) ? cut[(std::size_t)s * n + j] : -1;
        SUPERNPU_ASSERT(s == 1 || j >= 0,
                        "partition DP reconstruction broke");
    }
    return last;
}

Partitioner::Partitioner(const estimator::NpuEstimate &estimate,
                         LinkConfig link, npusim::SimCache *cache)
    : _sim(estimate), _link(link),
      _cache(cache ? cache : &npusim::SimCache::global()),
      _configHash(npusim::hashEstimate(estimate))
{
    _link.check();
}

std::shared_ptr<const npusim::SimResult>
Partitioner::simulate(npusim::SimCache &cache,
                      std::uint64_t network_hash,
                      const dnn::Network &network, int batch) const
{
    npusim::SimKey key;
    key.networkHash = network_hash;
    key.configHash = _configHash;
    key.batch = batch;
    return cache.getOrRun(key, _sim, network);
}

std::shared_ptr<const npusim::SimResult>
Partitioner::solo(const dnn::Network &network, int batch) const
{
    return simulate(*_cache, npusim::hashNetwork(network), network,
                    batch);
}

LayerTimings
Partitioner::buildTimings(npusim::SimCache &cache,
                          const dnn::Network &network,
                          std::uint64_t network_hash, int batch) const
{
    // One whole-network simulation (memoized) supplies the per-layer
    // costs the DP balances. These embed on-chip hand-off and
    // overlap effects of the unsplit schedule, so they are an
    // estimate for *cut selection*; the chosen stages are
    // re-simulated exactly by partition().
    auto full = simulate(cache, network_hash, network, batch);
    const int n = (int)network.layers.size();

    LayerTimings t;
    t.configName = full->configName;
    t.frequencyGhz = full->frequencyGhz;
    t.prefix.assign(n + 1, 0.0);
    for (int l = 0; l < n; ++l) {
        t.prefix[l + 1] =
            t.prefix[l] + (double)full->layers[l].totalCycles();
    }
    // Outbound link occupancy if the boundary sits after layer l.
    t.linkAfter.assign(n, 0.0);
    t.linkCycles.assign(n, 0);
    t.linkBytes.assign(n, 0);
    for (int l = 0; l + 1 < n; ++l) {
        t.linkBytes[l] = activationBytes(network.layers[l], batch);
        t.linkCycles[l] =
            transferCycles(_link, t.linkBytes[l], t.frequencyGhz);
        t.linkAfter[l] = (double)t.linkCycles[l];
    }
    return t;
}

std::shared_ptr<const npusim::SimResult>
Partitioner::simulateStage(CutTable &table, int first, int last) const
{
    std::shared_ptr<const npusim::SimResult> &sim =
        table.stageSims[(std::uint64_t)first << 32 | (std::uint32_t)last];
    if (sim)
        return sim;
    const dnn::Network &network = *table.network;
    if (first == 0 && last == table.layerCount() - 1) {
        // K=1: the stage *is* the network — identical name and
        // layers, so it hits (or seeds) the exact cache entry the
        // single-chip path uses. This is the byte-identity guarantee
        // docs/partitioning.md pins.
        sim = simulate(*table.cache, table.networkHash, network,
                       table.batch);
        return sim;
    }
    const std::string name = network.name + "[" +
                             std::to_string(first) + "-" +
                             std::to_string(last) + "]";
    npusim::SimKey key;
    key.networkHash =
        npusim::hashLayerRange(name, table.layerHashes, first, last);
    key.configHash = _configHash;
    key.batch = table.batch;
    sim = table.cache->getOrCompute(key, [&] {
        // Only a miss copies the stage's layers into a sub-network.
        dnn::Network stage;
        stage.name = name;
        stage.layers.assign(network.layers.begin() + first,
                            network.layers.begin() + last + 1);
        return _sim.run(stage, table.batch);
    });
    return sim;
}

CutTable
Partitioner::cutTable(const dnn::Network &network, int max_stages,
                      int batch, npusim::SimCache *cache) const
{
    network.check();
    if (max_stages < 1)
        fatal("pipeline needs at least 1 stage, got ", max_stages);
    if (batch < 1)
        fatal("batch must be at least 1, got ", batch);

    const int n = (int)network.layers.size();
    if (max_stages > n) {
        warn("network '", network.name, "' has ", n, " layers; clamping ",
             max_stages, " pipeline stages to ", n);
        max_stages = n;
    }
    const int k = max_stages;

    CutTable table;
    table.network = &network;
    table.cache = cache ? cache : _cache;
    table.batch = batch;
    table.maxStages = k;
    table.layerHashes.reserve(n);
    for (const dnn::Layer &layer : network.layers)
        table.layerHashes.push_back(npusim::hashLayer(layer));
    table.networkHash =
        npusim::hashLayerRange(network.name, table.layerHashes, 0, n - 1);

    // The cut-search inputs — per-layer cycle prefix sums and
    // per-boundary link costs — are memoized per (network, batch):
    // planner groups that differ only in R share a replica share,
    // and only the first pays for the derivation (and its
    // whole-network simulation lookup).
    table.timings = _timings.getOrCompute(
        {table.networkHash, batch}, [&] {
            return buildTimings(*table.cache, network,
                                table.networkHash, batch);
        });
    const std::vector<double> &prefix = table.timings->prefix;
    const std::vector<double> &link_after = table.timings->linkAfter;

    // Min-max contiguous partition DP: dp_s[j] is the best
    // bottleneck occupancy over layers 0..j split into s stages.
    // Only the previous row is live; the cut rows are kept.
    auto seg_cost = [&](int i, int j) {
        return prefix[j + 1] - prefix[i] + link_after[j];
    };
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> prev(n, kInf), dp(n, kInf);
    table.cut.assign((std::size_t)(k + 1) * n, -1);
    for (int j = 0; j < n; ++j)
        prev[j] = seg_cost(0, j);
    for (int s = 2; s <= k; ++s) {
        int *cut = &table.cut[(std::size_t)s * n];
        std::fill(dp.begin(), dp.end(), kInf);
        for (int j = s - 1; j < n; ++j) {
            // The last cut i scans downward. The last segment only
            // grows as i falls (prefix sums never decrease), so once
            // it alone exceeds the best bottleneck no lower cut can
            // win. `<=` keeps the lowest cut among equal costs, as an
            // upward scan with `<` does.
            for (int i = j - 1; i >= s - 2; --i) {
                const double last = seg_cost(i + 1, j);
                if (last > dp[j])
                    break;
                const double cost = std::max(prev[i], last);
                if (cost <= dp[j]) {
                    dp[j] = cost;
                    cut[j] = i;
                }
            }
        }
        std::swap(prev, dp);
    }
    return table;
}

PartitionPlan
Partitioner::partition(CutTable &table, int stages) const
{
    const std::vector<int> last = table.stageEnds(stages);
    const LayerTimings &timings = *table.timings;
    const int n = table.layerCount();
    const int k = stages;

    PartitionPlan plan;
    plan.networkName = table.network->name;
    plan.configName = timings.configName;
    plan.batch = table.batch;
    plan.frequencyGhz = timings.frequencyGhz;
    plan.link = _link;
    plan.stages.reserve(k);

    int first = 0;
    for (int s = 0; s < k; ++s) {
        PipelineStage stage;
        stage.firstLayer = first;
        stage.lastLayer = last[s];
        stage.sim = simulateStage(table, first, last[s]);
        stage.stageCycles = stage.sim->totalCycles;
        if (last[s] < n - 1) {
            stage.linkBytes = timings.linkBytes[last[s]];
            stage.linkCycles = timings.linkCycles[last[s]];
        }
        plan.stages.push_back(std::move(stage));
        first = last[s] + 1;
    }

    for (int s = 0; s < k; ++s) {
        std::uint64_t occ = plan.stages[s].occupancyCycles();
        plan.fillCycles += occ;
        if (occ > plan.bottleneckCycles) {
            plan.bottleneckCycles = occ;
            plan.bottleneckStage = s;
        }
    }
    SUPERNPU_ASSERT(plan.bottleneckCycles > 0,
                    "degenerate plan: zero bottleneck");
    return plan;
}

PartitionPlan
Partitioner::partition(const dnn::Network &network, int stages,
                       int batch) const
{
    CutTable table = cutTable(network, stages, batch);
    return partition(table, table.maxStages);
}

} // namespace partition
} // namespace supernpu
