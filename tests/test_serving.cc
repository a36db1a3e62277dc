/**
 * @file
 * Tests for the inference-serving subsystem: arrival-model
 * statistics and determinism, batch-queue policy invariants,
 * dispatcher behavior, and end-to-end discrete-event properties
 * (conservation, no batch above the solver max, timeout flushes,
 * p99 monotonicity in offered load, multi-chip scaling).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "dnn/parser.hh"
#include "estimator/npu_estimator.hh"
#include "npusim/batch.hh"
#include "npusim/sim_cache.hh"
#include "obs/audit.hh"
#include "reliability/fault_model.hh"
#include "serving/simulator.hh"

namespace supernpu {
namespace serving {
namespace {

// --- arrival models --------------------------------------------------

TEST(Arrival, PoissonGapsMatchConfiguredRate)
{
    ArrivalConfig config;
    config.kind = ArrivalKind::OpenPoisson;
    config.ratePerSec = 1000.0;
    ArrivalProcess process(config, 1);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double gap = process.nextGapSec();
        EXPECT_GT(gap, 0.0);
        sum += gap;
    }
    EXPECT_NEAR(sum / n, 1e-3, 1e-3 * 0.05);
}

TEST(Arrival, BurstyPreservesOfferedLoad)
{
    ArrivalConfig config;
    config.kind = ArrivalKind::Bursty;
    config.ratePerSec = 2000.0;
    config.meanOnSec = 2e-3;
    config.meanOffSec = 8e-3;
    ArrivalProcess process(config, 7);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += process.nextGapSec();
    // The long-run mean gap is 1/rate despite the on/off modulation.
    EXPECT_NEAR(sum / n, 1.0 / 2000.0, 1.0 / 2000.0 * 0.1);
}

TEST(Arrival, SameSeedSameGaps)
{
    ArrivalConfig config;
    config.kind = ArrivalKind::Bursty;
    ArrivalProcess a(config, 42);
    ArrivalProcess b(config, 42);
    ArrivalProcess c(config, 43);
    bool any_differ = false;
    for (int i = 0; i < 1000; ++i) {
        const double gap = a.nextGapSec();
        EXPECT_DOUBLE_EQ(gap, b.nextGapSec());
        any_differ |= gap != c.nextGapSec();
    }
    EXPECT_TRUE(any_differ);
}

TEST(Arrival, ZeroThinkTimeIsExactlyZero)
{
    ArrivalConfig config;
    config.kind = ArrivalKind::ClosedLoop;
    config.clients = 4;
    ArrivalProcess process(config, 1);
    EXPECT_DOUBLE_EQ(process.thinkGapSec(), 0.0);
}

TEST(ArrivalDeath, NonFiniteSettingsAreFatal)
{
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    const auto check = [](ArrivalKind kind, double ArrivalConfig::*field,
                          double value) {
        ArrivalConfig config;
        config.kind = kind;
        config.*field = value;
        config.check();
    };
    EXPECT_EXIT(check(ArrivalKind::OpenPoisson, &ArrivalConfig::ratePerSec,
                      nan),
                ::testing::ExitedWithCode(1), "arrival rate .* got nan");
    EXPECT_EXIT(check(ArrivalKind::OpenPoisson, &ArrivalConfig::ratePerSec,
                      inf),
                ::testing::ExitedWithCode(1), "arrival rate .* got inf");
    EXPECT_EXIT(check(ArrivalKind::Bursty, &ArrivalConfig::meanOnSec, nan),
                ::testing::ExitedWithCode(1), "bursty phases need finite");
    EXPECT_EXIT(check(ArrivalKind::Bursty, &ArrivalConfig::meanOffSec, inf),
                ::testing::ExitedWithCode(1), "bursty phases need finite");
    EXPECT_EXIT(check(ArrivalKind::ClosedLoop, &ArrivalConfig::thinkSec,
                      nan),
                ::testing::ExitedWithCode(1), "think time must be finite");
}

// --- batch queue -----------------------------------------------------

TEST(BatchQueue, FullBatchLaunchesImmediately)
{
    BatchingConfig config;
    config.maxBatch = 4;
    config.timeoutSec = 1.0;
    BatchQueue queue(config);
    for (int i = 0; i < 4; ++i) {
        EXPECT_FALSE(queue.launchable(1e-5 * i));
        queue.push(Request{(std::uint64_t)i, 1e-5 * i, 1e-5 * i});
    }
    EXPECT_TRUE(queue.launchable(4e-5));
    EXPECT_EQ(queue.pop().size(), 4u);
    EXPECT_TRUE(queue.empty());
}

TEST(BatchQueue, PartialBatchWaitsForTimeout)
{
    BatchingConfig config;
    config.maxBatch = 8;
    config.timeoutSec = 1e-3;
    BatchQueue queue(config);
    queue.push(Request{0, 0.5, 0.5});
    queue.push(Request{1, 0.5004, 0.5004});
    // The deadline tracks the oldest request, not the newest.
    EXPECT_DOUBLE_EQ(queue.nextDeadlineSec(), 0.5 + 1e-3);
    EXPECT_FALSE(queue.launchable(0.5009));
    EXPECT_TRUE(queue.launchable(0.501));
    EXPECT_EQ(queue.pop().size(), 2u);
}

TEST(BatchQueue, PopNeverExceedsMax)
{
    BatchingConfig config;
    config.maxBatch = 3;
    BatchQueue queue(config);
    for (int i = 0; i < 8; ++i)
        queue.push(Request{(std::uint64_t)i, (double)i, (double)i});
    EXPECT_EQ(queue.pop().size(), 3u);
    EXPECT_EQ(queue.pop().size(), 3u);
    const auto last = queue.pop();
    ASSERT_EQ(last.size(), 2u);
    // FIFO order end to end.
    EXPECT_EQ(last[0].id, 6u);
    EXPECT_EQ(last[1].id, 7u);
}

TEST(BatchQueue, FixedPolicyNeverTimesOut)
{
    BatchingConfig config;
    config.policy = BatchPolicy::FixedBatch;
    config.maxBatch = 4;
    BatchQueue queue(config);
    queue.push(Request{0, 0.0, 0.0});
    EXPECT_FALSE(queue.launchable(1e9));
    EXPECT_TRUE(std::isinf(queue.nextDeadlineSec()));
    queue.push(Request{1, 1.0, 1.0});
    queue.push(Request{2, 2.0, 2.0});
    queue.push(Request{3, 3.0, 3.0});
    EXPECT_TRUE(queue.launchable(3.0));
}

// --- dispatcher ------------------------------------------------------

TEST(Dispatch, RoundRobinCycles)
{
    Dispatcher dispatcher(DispatchPolicy::RoundRobin, 3);
    // Round-robin ignores load...
    dispatcher.setLoad(0, 5);
    dispatcher.setLoad(2, 9);
    for (int expect : {0, 1, 2, 0, 1, 2})
        EXPECT_EQ(dispatcher.pick(), expect);
    // ...and rotates past quarantined targets.
    dispatcher.quarantine(1);
    for (int expect : {0, 2, 0, 2})
        EXPECT_EQ(dispatcher.pick(), expect);
}

TEST(Dispatch, JsqPicksLeastLoadedLowestIndexOnTies)
{
    Dispatcher dispatcher(DispatchPolicy::JoinShortestQueue, 4);
    const auto loads = [&](std::vector<int> outstanding) {
        for (int i = 0; i < 4; ++i)
            dispatcher.setLoad(i, outstanding[(std::size_t)i]);
    };
    EXPECT_EQ(dispatcher.pick(), 0);
    loads({3, 1, 2, 1});
    EXPECT_EQ(dispatcher.pick(), 1);
    loads({0, 0, 0, 0});
    EXPECT_EQ(dispatcher.pick(), 0);
    loads({2, 2, 2, 0});
    EXPECT_EQ(dispatcher.pick(), 3);
    // A quarantined target is never picked, whatever its load.
    dispatcher.quarantine(3);
    EXPECT_EQ(dispatcher.pick(), 0);
    dispatcher.setLoad(3, 0);
    EXPECT_EQ(dispatcher.pick(), 0);
}

TEST(Dispatch, PickMatchesLinearScanUnderRandomUpdates)
{
    for (DispatchPolicy policy : {DispatchPolicy::JoinShortestQueue,
                                  DispatchPolicy::RoundRobin}) {
        for (int targets : {1, 3, 1000}) {
            Dispatcher dispatcher(policy, targets);
            std::vector<int> load((std::size_t)targets, 0);
            std::vector<char> quarantined((std::size_t)targets, 0);
            int healthy = targets;
            int cursor = 0; // the reference round-robin cursor
            Rng rng(streamSeed(7, (std::uint64_t)targets));
            for (int step = 0; step < 10000; ++step) {
                const int target =
                    (int)(rng.uniform() * targets) % targets;
                // Rare quarantines; the last healthy target stays.
                if (rng.uniform() < 0.01 && healthy > 1 &&
                    !quarantined[(std::size_t)target]) {
                    dispatcher.quarantine(target);
                    quarantined[(std::size_t)target] = 1;
                    --healthy;
                } else {
                    // Small loads make ties common.
                    const int outstanding = (int)(rng.uniform() * 6);
                    dispatcher.setLoad(target, outstanding);
                    load[(std::size_t)target] = outstanding;
                }
                int expect = -1;
                if (policy == DispatchPolicy::JoinShortestQueue) {
                    for (int i = 0; i < targets; ++i) {
                        if (quarantined[(std::size_t)i])
                            continue;
                        if (expect < 0 || load[(std::size_t)i] <
                                              load[(std::size_t)expect])
                            expect = i;
                    }
                } else {
                    expect = cursor;
                    while (quarantined[(std::size_t)expect])
                        expect = (expect + 1) % targets;
                    cursor = (expect + 1) % targets;
                }
                ASSERT_EQ(dispatcher.pick(), expect)
                    << dispatchPolicyName(policy) << " on " << targets
                    << " targets, step " << step;
            }
        }
    }
}

TEST(ServingConfigDeath, ChipCountAboveTheCapIsFatal)
{
    ServingConfig serving;
    serving.chips = kMaxServingChips;
    serving.check();
    serving.chips = kMaxServingChips + 1;
    EXPECT_EXIT(serving.check(), ::testing::ExitedWithCode(1),
                "at most 1048576 chips, got 1048577");
}

// --- end-to-end ------------------------------------------------------

/**
 * A small two-conv network keeps the memoized cycle simulations
 * cheap while exercising the real NpuSimulator path.
 */
class ServingFixture : public ::testing::Test
{
  protected:
    ServingFixture()
        : net(dnn::parseNetwork("network ServeTest\n"
                                "conv c1  3 16 16 3 1 1\n"
                                "conv c2 16 16 16 3 1 1\n")),
          config(estimator::NpuConfig::superNpu()),
          estimate(estimator::NpuEstimator(lib).estimate(config)),
          solver_max(npusim::maxBatch(config, estimate, net)),
          service(estimate, net)
    {
    }

    ServingConfig
    baseConfig(double rps) const
    {
        ServingConfig serving;
        serving.arrival.ratePerSec = rps;
        serving.batching.maxBatch = solver_max;
        serving.batching.timeoutSec = 1e-4;
        serving.requests = 3000;
        return serving;
    }

    sfq::DeviceConfig dev;
    sfq::CellLibrary lib{dev};
    dnn::Network net;
    estimator::NpuConfig config;
    estimator::NpuEstimate estimate;
    int solver_max;
    BatchServiceModel service;
};

TEST_F(ServingFixture, ServiceModelCachesPerBatch)
{
    const double once = service.batchSeconds(4);
    EXPECT_GT(once, 0.0);
    EXPECT_DOUBLE_EQ(service.batchSeconds(4), once);
    EXPECT_EQ(service.cachedBatches(), 1u);
    // Larger batches amortize preparation: strictly cheaper per
    // inference than batch 1.
    EXPECT_LT(service.batchSeconds(solver_max) / solver_max,
              service.batchSeconds(1));
}

TEST_F(ServingFixture, ConservesRequestsAndBoundsBatches)
{
    const double capacity = service.peakRps(solver_max);
    const auto report =
        ServingSimulator(service, baseConfig(0.7 * capacity)).run();
    EXPECT_EQ(report.completed, 3000u);
    EXPECT_EQ(report.generated, 3000u);
    EXPECT_GE(report.maxBatchLaunched, 1);
    EXPECT_LE(report.maxBatchLaunched, solver_max);
    EXPECT_GT(report.utilization, 0.0);
    EXPECT_LE(report.utilization, 1.0);
    EXPECT_GE(report.latencyP99, report.latencyP50);
    EXPECT_GE(report.latencyMax, report.latencyP999);
    // The full conservation-audit battery holds on a clean run.
    const obs::AuditReport audit = obs::auditServing(report);
    EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST_F(ServingFixture, BusyTimeIsBoundedByChipTime)
{
    const double capacity = service.peakRps(solver_max);
    ServingConfig serving = baseConfig(0.8 * 2.0 * capacity);
    serving.chips = 2;
    const auto report = ServingSimulator(service, serving).run();
    ASSERT_EQ(report.perChipBusySec.size(), 2u);
    double busy = 0.0;
    for (double chip_busy : report.perChipBusySec) {
        EXPECT_GE(chip_busy, 0.0);
        EXPECT_LE(chip_busy, report.makespanSec * (1.0 + 1e-9));
        busy += chip_busy;
    }
    EXPECT_LE(busy, 2.0 * report.makespanSec * (1.0 + 1e-9));
    // utilization is exactly the busy fraction of total chip-time.
    EXPECT_NEAR(report.utilization,
                busy / (2.0 * report.makespanSec), 1e-9);
    const obs::AuditReport audit = obs::auditServing(report);
    EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST_F(ServingFixture, TimeoutFlushesPartialBatches)
{
    // One lonely request: it can only leave via the timeout flush,
    // so its latency is exactly timeout + batch-1 service.
    ServingConfig serving = baseConfig(1.0);
    serving.requests = 1;
    const auto report = ServingSimulator(service, serving).run();
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(report.maxBatchLaunched, 1);
    EXPECT_NEAR(report.latencyMax,
                serving.batching.timeoutSec + service.batchSeconds(1),
                1e-12);
}

TEST_F(ServingFixture, SameSeedReplaysBitIdentically)
{
    const double capacity = service.peakRps(solver_max);
    const auto a =
        ServingSimulator(service, baseConfig(0.5 * capacity)).run();
    const auto b =
        ServingSimulator(service, baseConfig(0.5 * capacity)).run();
    EXPECT_DOUBLE_EQ(a.latencyP99, b.latencyP99);
    EXPECT_DOUBLE_EQ(a.throughputRps, b.throughputRps);
    EXPECT_DOUBLE_EQ(a.makespanSec, b.makespanSec);
    EXPECT_EQ(a.batchesLaunched, b.batchesLaunched);

    ServingConfig other = baseConfig(0.5 * capacity);
    other.seed += 1;
    const auto c = ServingSimulator(service, other).run();
    EXPECT_NE(a.makespanSec, c.makespanSec);
}

TEST_F(ServingFixture, P99RisesMonotonicallyWithOfferedLoad)
{
    // The timeout must be small next to the service time, else the
    // low-load floor is timeout-bound and batches that fill *faster*
    // under load make latency initially fall (a real dynamic-batching
    // effect, but not the queueing signal this test pins down).
    const double capacity = service.peakRps(solver_max);
    const auto at_load = [&](double frac) {
        ServingConfig serving = baseConfig(frac * capacity);
        serving.batching.timeoutSec = 2.0 * service.batchSeconds(1);
        return ServingSimulator(service, serving).run();
    };
    double previous = 0.0;
    for (double frac : {0.3, 0.7, 1.0, 1.3}) {
        const auto report = at_load(frac);
        EXPECT_GE(report.latencyP99, previous) << "at load " << frac;
        previous = report.latencyP99;
    }
    // Overload (1.3x) must push p99 well past the light-load floor.
    EXPECT_GT(previous, 2.0 * at_load(0.3).latencyP99);
}

TEST_F(ServingFixture, FixedPolicyLaunchesOnlyFullBatchesPlusDrain)
{
    ServingConfig serving = baseConfig(0.5 * service.peakRps(4));
    serving.batching.policy = BatchPolicy::FixedBatch;
    serving.batching.maxBatch = 4;
    serving.requests = 1001; // forces one partial drain batch
    const auto report = ServingSimulator(service, serving).run();
    EXPECT_EQ(report.completed, 1001u);
    EXPECT_LE(report.maxBatchLaunched, 4);
    // 250 full batches and the drained singleton.
    EXPECT_EQ(report.batchesLaunched, 251u);
}

TEST_F(ServingFixture, ClosedLoopKeepsClientsOutstanding)
{
    ServingConfig serving = baseConfig(0.0);
    serving.arrival.kind = ArrivalKind::ClosedLoop;
    serving.arrival.clients = 8;
    serving.requests = 2000;
    const auto report = ServingSimulator(service, serving).run();
    EXPECT_EQ(report.completed, 2000u);
    // Little's law: N = X * R, with N bounded by the population.
    const double n = report.throughputRps * report.latencyMean;
    EXPECT_LE(n, 8.0 + 1e-6);
    EXPECT_GT(n, 1.0);
}

TEST_F(ServingFixture, MultiChipScalingLiftsThroughput)
{
    // Saturate: closed loop with a big population admits as much as
    // the chips can serve, so throughput tracks chip count. Greedy
    // batching (zero timeout) keeps the drain tail from dominating
    // this tiny workload's makespan.
    ServingConfig serving = baseConfig(0.0);
    serving.arrival.kind = ArrivalKind::ClosedLoop;
    serving.arrival.clients = 256;
    serving.batching.timeoutSec = 0.0;
    serving.requests = 30000;
    const auto one = ServingSimulator(service, serving).run();
    serving.chips = 4;
    const auto four = ServingSimulator(service, serving).run();
    EXPECT_GT(one.utilization, 0.9);
    EXPECT_GT(four.throughputRps, 3.0 * one.throughputRps);
}

TEST_F(ServingFixture, BurstyTrafficHasFatterTailThanPoisson)
{
    const double capacity = service.peakRps(solver_max);
    ServingConfig serving = baseConfig(0.6 * capacity);
    const auto poisson = ServingSimulator(service, serving).run();
    serving.arrival.kind = ArrivalKind::Bursty;
    serving.arrival.meanOnSec = 2e-3;
    serving.arrival.meanOffSec = 8e-3;
    const auto bursty = ServingSimulator(service, serving).run();
    EXPECT_EQ(bursty.completed, poisson.completed);
    // Same average load, but on-phase rate is 5x: the tail suffers.
    EXPECT_GT(bursty.latencyP99, poisson.latencyP99);
}

TEST_F(ServingFixture, ColdAndParallelWarmedCachesServeIdentically)
{
    // The service model memoizes in a SimCache; whether that cache
    // is cold or was warmed concurrently by 8 threads (a parallel
    // sweep sharing the process-wide cache) must not change a single
    // reported number for the same seed.
    const double capacity = service.peakRps(solver_max);
    npusim::SimCache cold_cache, warm_cache;
    BatchServiceModel cold(estimate, net, &cold_cache);
    BatchServiceModel warm(estimate, net, &warm_cache);
    ThreadPool pool(8);
    pool.parallelFor((std::size_t)solver_max, [&](std::size_t i) {
        warm.batchSeconds((int)i + 1);
    });
    EXPECT_EQ(warm.cachedBatches(), (std::size_t)solver_max);

    const auto a =
        ServingSimulator(cold, baseConfig(0.7 * capacity)).run();
    const auto b =
        ServingSimulator(warm, baseConfig(0.7 * capacity)).run();
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.batchesLaunched, b.batchesLaunched);
    EXPECT_DOUBLE_EQ(a.throughputRps, b.throughputRps);
    EXPECT_DOUBLE_EQ(a.latencyMean, b.latencyMean);
    EXPECT_DOUBLE_EQ(a.latencyP50, b.latencyP50);
    EXPECT_DOUBLE_EQ(a.latencyP95, b.latencyP95);
    EXPECT_DOUBLE_EQ(a.latencyP99, b.latencyP99);
    EXPECT_DOUBLE_EQ(a.latencyP999, b.latencyP999);
    EXPECT_DOUBLE_EQ(a.latencyMax, b.latencyMax);
}

TEST_F(ServingFixture, ConcurrentBatchSecondsQueriesAgree)
{
    // Thread-safety of the service model itself: many threads asking
    // for overlapping batch sizes all see the deterministic value.
    std::vector<double> reference;
    for (int b = 1; b <= solver_max; ++b)
        reference.push_back(service.batchSeconds(b));
    ThreadPool pool(8);
    const auto parallel =
        pool.parallelMap((std::size_t)solver_max * 4,
                         [&](std::size_t i) {
                             const int b =
                                 (int)(i % (std::size_t)solver_max);
                             return service.batchSeconds(b + 1);
                         });
    for (std::size_t i = 0; i < parallel.size(); ++i) {
        EXPECT_DOUBLE_EQ(
            parallel[i],
            reference[i % (std::size_t)solver_max]);
    }
}

// --- pipelined placement (src/partition) -----------------------------

TEST_F(ServingFixture, PipelinedRunConservesAndAttributesLaunches)
{
    ServingConfig serving =
        baseConfig(0.5 * 2.0 * service.peakRps(solver_max));
    serving.chips = 4;
    serving.pipelineStages = 2;
    const auto report = ServingSimulator(service, serving).run();
    EXPECT_EQ(report.completed, 3000u);
    EXPECT_EQ(report.pipelineStages, 2);
    EXPECT_EQ(report.pipelineGroups, 2);
    const obs::AuditReport audit = obs::auditServing(report);
    EXPECT_TRUE(audit.ok()) << audit.summary();
    // Each batch launch is counted once, on the stage-0 chip of its
    // group; stage-1 chips record busy time but never a launch.
    ASSERT_EQ(report.perChipBatches.size(), 4u);
    EXPECT_EQ(report.perChipBatches[1], 0u);
    EXPECT_EQ(report.perChipBatches[3], 0u);
    EXPECT_EQ(report.perChipBatches[0] + report.perChipBatches[2],
              report.batchesLaunched);
    ASSERT_EQ(report.perChipBusySec.size(), 4u);
    EXPECT_GT(report.perChipBusySec[1], 0.0);
    EXPECT_GT(report.perChipBusySec[3], 0.0);
}

TEST_F(ServingFixture, PipelinedFaultQuarantinesTheWholeGroup)
{
    ServingConfig serving =
        baseConfig(0.5 * service.peakRps(solver_max));
    serving.chips = 4;
    serving.pipelineStages = 2;
    // One permanent flux trap on chip 1 — the *stage-1* chip of
    // group 0. A pipeline is only as healthy as its sickest stage,
    // so quarantine must write off the whole group.
    reliability::FaultScheduleConfig faults;
    faults.chips = 4;
    reliability::FaultEvent event;
    event.kind = reliability::FaultKind::FluxTrap;
    event.chip = 1;
    event.magnitude = faults.fluxTrapDerate;
    serving.faults =
        reliability::FaultSchedule::fromEvents(faults, {event});
    serving.resilience.recovery = RecoveryPolicy::DegradedDispatch;
    serving.resilience.detectLatencySec = 1e-12;
    const auto report = ServingSimulator(service, serving).run();
    EXPECT_EQ(report.completed, serving.requests);
    EXPECT_EQ(report.failedRequests, 0u);
    ASSERT_EQ(report.perChipBatches.size(), 4u);
    EXPECT_EQ(report.perChipBatches[0], 0u);
    EXPECT_EQ(report.perChipBatches[1], 0u);
    EXPECT_GT(report.perChipBatches[2], 0u);
    EXPECT_EQ(report.perChipBatches[3], 0u);
    // Writing off one of two groups costs half the fleet.
    EXPECT_LT(report.availability, 0.55);
    const obs::AuditReport audit = obs::auditServing(report);
    EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST_F(ServingFixture, PipelinedRetryRidesOutTransientFaults)
{
    ServingConfig serving =
        baseConfig(0.5 * 2.0 * service.peakRps(solver_max));
    serving.chips = 4;
    serving.pipelineStages = 2;
    reliability::FaultScheduleConfig faults;
    faults.chips = 4;
    faults.horizonSec =
        (double)serving.requests / serving.arrival.ratePerSec;
    faults.pulseDropRatePerSec = 20.0 / faults.horizonSec;
    faults.linkGlitchRatePerSec = 20.0 / faults.horizonSec;
    // Scale the glitch stall to the workload: the default is tuned
    // for wall-clock-scale runs and would dwarf this microscopic
    // makespan.
    faults.linkGlitchDelaySec = 0.5 * service.batchSeconds(solver_max);
    serving.faults = reliability::FaultSchedule::generate(faults);
    serving.resilience.recovery = RecoveryPolicy::RetryBackoff;
    serving.resilience.detectLatencySec =
        0.25 * service.batchSeconds(solver_max);
    serving.resilience.backoffBaseSec =
        service.batchSeconds(solver_max);
    const auto report = ServingSimulator(service, serving).run();
    EXPECT_EQ(report.completed, serving.requests);
    const obs::AuditReport audit = obs::auditServing(report);
    EXPECT_TRUE(audit.ok()) << audit.summary();
}

// --- dispatch equivalence, pinned ------------------------------------

/**
 * Twelve dispatch targets (not a power of two, so the JSQ index has
 * padding leaves) under every placement and under mid-run
 * quarantine. The pinned numbers were recorded with the original
 * linear-scan dispatcher; any change to a dispatch decision, tie
 * break included, moves at least one of them.
 */
class PinnedDispatch : public ServingFixture
{
  protected:
    static constexpr int kTargets = 12;

    /**
     * kTargets groups of `group` chips at 0.6 of fleet capacity.
     */
    ServingConfig
    fleet(int group) const
    {
        ServingConfig serving = baseConfig(
            0.6 * kTargets * service.peakRps(solver_max));
        serving.chips = kTargets * group;
        // A timeout below one service time launches small batches
        // onto idle chips, so ties between idle targets are common
        // and the tie rule shows in where the batches land.
        serving.batching.timeoutSec = 0.5 * service.batchSeconds(1);
        return serving;
    }

    /**
     * A flux trap on chip 5 halfway through the run: degraded
     * dispatch quarantines the chip and moves its queue onto the
     * rest of the fleet.
     */
    void
    trapMidRun(ServingConfig &serving) const
    {
        reliability::FaultScheduleConfig faults;
        faults.chips = serving.chips;
        reliability::FaultEvent trap;
        trap.kind = reliability::FaultKind::FluxTrap;
        trap.chip = 5;
        trap.timeSec =
            0.5 * (double)serving.requests / serving.arrival.ratePerSec;
        trap.magnitude = faults.fluxTrapDerate;
        serving.faults =
            reliability::FaultSchedule::fromEvents(faults, {trap});
        serving.resilience.recovery = RecoveryPolicy::DegradedDispatch;
        // Quarantine lands one detection latency after the trap;
        // scale it to the tiny network's service time.
        serving.resilience.detectLatencySec =
            0.25 * service.batchSeconds(solver_max);
    }
};

/** Report fields the equivalence cases pin. */
struct Pinned
{
    std::uint64_t completed;
    std::uint64_t eventsProcessed;
    std::uint64_t batchesLaunched;
    double latencyP99;
    std::vector<std::uint64_t> perChipBatches;
};

void
expectPinned(const ServingReport &report, const Pinned &pinned)
{
    EXPECT_EQ(report.completed, pinned.completed);
    EXPECT_EQ(report.eventsProcessed, pinned.eventsProcessed);
    EXPECT_EQ(report.batchesLaunched, pinned.batchesLaunched);
    EXPECT_DOUBLE_EQ(report.latencyP99, pinned.latencyP99);
    EXPECT_EQ(report.perChipBatches, pinned.perChipBatches);
    const obs::AuditReport audit = obs::auditServing(report);
    EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST_F(PinnedDispatch, JsqPlain)
{
    const ServingReport report = ServingSimulator(service, fleet(1)).run();
    expectPinned(report,
                 {3000, 4400, 1280, 1.5780225592487268e-07,
                  {103, 104, 102, 105, 101, 106,
                   107, 110, 111, 110, 111, 110}});
}

TEST_F(PinnedDispatch, JsqPipelined)
{
    ServingConfig serving = fleet(2);
    serving.pipelineStages = 2;
    const ServingReport report = ServingSimulator(service, serving).run();
    expectPinned(report,
                 {3000, 4754, 667, 7.2192248080510994e-07,
                  {53, 0, 52, 0, 59, 0, 53, 0, 56, 0, 56, 0,
                   58, 0, 58, 0, 54, 0, 57, 0, 56, 0, 55, 0}});
}

TEST_F(PinnedDispatch, JsqReplicated)
{
    ServingConfig serving = fleet(2);
    serving.dataParallelReplicas = 2;
    const ServingReport report = ServingSimulator(service, serving).run();
    expectPinned(report,
                 {3000, 4184, 1158, 1.7212702263069765e-07,
                  {91, 0, 94, 0, 93, 0, 95, 0, 95, 0, 96, 0,
                   98, 0, 99, 0, 99, 0, 98, 0, 99, 0, 101, 0}});
}

TEST_F(PinnedDispatch, JsqDegradedMidRunQuarantine)
{
    ServingConfig serving = fleet(1);
    trapMidRun(serving);
    const ServingReport report = ServingSimulator(service, serving).run();
    EXPECT_GT(report.redispatches, 0u);
    expectPinned(report,
                 {3000, 4252, 1175, 1.7976990177674214e-07,
                  {97, 98, 97, 101, 99, 55,
                   101, 102, 105, 107, 107, 106}});
}

TEST_F(PinnedDispatch, RoundRobinDegradedMidRunQuarantine)
{
    ServingConfig serving = fleet(1);
    serving.dispatch = DispatchPolicy::RoundRobin;
    trapMidRun(serving);
    const ServingReport report = ServingSimulator(service, serving).run();
    EXPECT_GT(report.redispatches, 0u);
    expectPinned(report,
                 {3000, 4197, 1177, 1.7212702263069765e-07,
                  {102, 102, 102, 102, 102, 55,
                   102, 102, 102, 102, 102, 102}});
}

// --- degenerate metrics (zero-makespan guard) ------------------------

TEST(Metrics, ZeroMakespanReportsZeroRatesNotNan)
{
    MetricsCollector metrics(2);
    const ServingReport report = metrics.finish(0.0);
    EXPECT_EQ(report.throughputRps, 0.0);
    EXPECT_EQ(report.utilization, 0.0);
    EXPECT_EQ(report.meanQueueDepth, 0.0);
    EXPECT_EQ(report.availability, 0.0);
    EXPECT_TRUE(std::isfinite(report.throughputRps));
    EXPECT_TRUE(std::isfinite(report.utilization));
    EXPECT_TRUE(std::isfinite(report.availability));
}

} // namespace
} // namespace serving
} // namespace supernpu
