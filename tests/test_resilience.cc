/**
 * @file
 * Serving-resilience tests: the zero-cost guarantee (an empty fault
 * schedule leaves serving byte-identical), deterministic retry
 * sequencing, degraded dispatch never routing to quarantined chips
 * (and failing what it cannot place once every chip is quarantined),
 * checkpoint/restart conservation, retry give-up, and the
 * availability/goodput accounting.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dnn/parser.hh"
#include "estimator/npu_estimator.hh"
#include "npusim/batch.hh"
#include "obs/audit.hh"
#include "reliability/fault_model.hh"
#include "serving/simulator.hh"

namespace supernpu {
namespace serving {
namespace {

class ResilienceFixture : public ::testing::Test
{
  protected:
    ResilienceFixture()
        : net(dnn::parseNetwork("network ResilTest\n"
                                "conv c1  3 16 16 3 1 1\n"
                                "conv c2 16 16 16 3 1 1\n")),
          config(estimator::NpuConfig::superNpu()),
          estimate(estimator::NpuEstimator(lib).estimate(config)),
          solver_max(npusim::maxBatch(config, estimate, net)),
          service(estimate, net)
    {
    }

    /** A 2-chip config at 60% of aggregate capacity. */
    ServingConfig
    baseConfig() const
    {
        ServingConfig serving;
        serving.chips = 2;
        serving.arrival.ratePerSec =
            0.6 * 2.0 * service.peakRps(solver_max);
        serving.batching.maxBatch = solver_max;
        serving.requests = 3000;
        // Resilience timescales follow the tiny network's service
        // time, as a deployment would tune them to the workload.
        serving.resilience.detectLatencySec =
            0.25 * service.batchSeconds(solver_max);
        serving.resilience.backoffBaseSec =
            service.batchSeconds(solver_max);
        serving.resilience.checkpointIntervalSec =
            0.25 * service.batchSeconds(solver_max);
        return serving;
    }

    /** Makespan of the base config, for rate scaling. */
    double
    baseMakespan() const
    {
        const ServingConfig serving = baseConfig();
        return (double)serving.requests /
               serving.arrival.ratePerSec;
    }

    /** Pulse drops across both chips, paced to the run. */
    reliability::FaultSchedule
    dropSchedule(double per_chip_count) const
    {
        reliability::FaultScheduleConfig faults;
        faults.chips = 2;
        faults.horizonSec = baseMakespan();
        faults.pulseDropRatePerSec =
            per_chip_count / faults.horizonSec;
        return reliability::FaultSchedule::generate(faults);
    }

    /** One permanent flux trap on chip 0 at t = 0. */
    reliability::FaultSchedule
    trapChipZero() const
    {
        reliability::FaultScheduleConfig faults;
        faults.chips = 2;
        reliability::FaultEvent event;
        event.kind = reliability::FaultKind::FluxTrap;
        event.magnitude = faults.fluxTrapDerate;
        return reliability::FaultSchedule::fromEvents(faults, {event});
    }

    sfq::DeviceConfig dev;
    sfq::CellLibrary lib{dev};
    dnn::Network net;
    estimator::NpuConfig config;
    estimator::NpuEstimate estimate;
    int solver_max;
    BatchServiceModel service;
};

TEST_F(ResilienceFixture, EmptyScheduleIsByteIdenticalToBaseline)
{
    // The zero-cost guarantee: arming a recovery policy without any
    // faults must not perturb a single event — same seq numbering,
    // same batches, bit-identical metrics.
    ServingConfig plain = baseConfig();
    const auto baseline = ServingSimulator(service, plain).run();

    ServingConfig armed = baseConfig();
    armed.resilience.recovery = RecoveryPolicy::RetryBackoff;
    armed.resilience.checkpointRestart = true;
    const auto report = ServingSimulator(service, armed).run();

    EXPECT_FALSE(report.resilienceActive);
    EXPECT_DOUBLE_EQ(report.makespanSec, baseline.makespanSec);
    EXPECT_DOUBLE_EQ(report.latencyP99, baseline.latencyP99);
    EXPECT_DOUBLE_EQ(report.latencyMax, baseline.latencyMax);
    EXPECT_DOUBLE_EQ(report.throughputRps, baseline.throughputRps);
    EXPECT_EQ(report.batchesLaunched, baseline.batchesLaunched);
    EXPECT_EQ(report.faultsInjected, 0u);
    EXPECT_EQ(report.failedRequests, 0u);
    EXPECT_DOUBLE_EQ(report.availability, 1.0);
}

TEST_F(ResilienceFixture, RetrySequencingIsDeterministic)
{
    ServingConfig serving = baseConfig();
    serving.faults = dropSchedule(40.0);
    serving.resilience.recovery = RecoveryPolicy::RetryBackoff;
    const auto a = ServingSimulator(service, serving).run();
    const auto b = ServingSimulator(service, serving).run();
    EXPECT_TRUE(a.resilienceActive);
    EXPECT_GT(a.batchesKilled, 0u);
    EXPECT_GT(a.retriesTotal, 0u);
    EXPECT_EQ(a.batchesKilled, b.batchesKilled);
    EXPECT_EQ(a.retriesTotal, b.retriesTotal);
    EXPECT_EQ(a.failedRequests, b.failedRequests);
    EXPECT_DOUBLE_EQ(a.makespanSec, b.makespanSec);
    EXPECT_DOUBLE_EQ(a.latencyP99, b.latencyP99);
}

TEST_F(ResilienceFixture, DegradedDispatchShunsQuarantinedChips)
{
    ServingConfig serving = baseConfig();
    serving.faults = trapChipZero();
    serving.resilience.recovery = RecoveryPolicy::DegradedDispatch;
    // Quarantine lands before the first request can arrive.
    serving.resilience.detectLatencySec = 1e-12;
    const auto report = ServingSimulator(service, serving).run();
    ASSERT_EQ(report.perChipBatches.size(), 2u);
    EXPECT_EQ(report.perChipBatches[0], 0u);
    EXPECT_GT(report.perChipBatches[1], 0u);
    EXPECT_EQ(report.completed, serving.requests);
    EXPECT_EQ(report.failedRequests, 0u);
    // Writing off half the fleet halves availability.
    EXPECT_LT(report.availability, 0.55);
}

TEST_F(ResilienceFixture, CheckpointRestartConservesRequests)
{
    ServingConfig serving = baseConfig();
    serving.faults = dropSchedule(40.0);
    serving.resilience.recovery = RecoveryPolicy::RetryBackoff;
    serving.resilience.checkpointRestart = true;
    const auto report = ServingSimulator(service, serving).run();
    EXPECT_EQ(report.completed, serving.requests);
    EXPECT_EQ(report.generated, serving.requests);
    EXPECT_GT(report.restarts, 0u);
    // Restarted batches never re-enter the queue.
    EXPECT_EQ(report.retriesTotal, 0u);
    // A corrupted-then-restarted batch stretches the tail past the
    // clean run's.
    const auto clean =
        ServingSimulator(service, baseConfig()).run();
    EXPECT_GT(report.latencyMax, clean.latencyMax);
}

TEST_F(ResilienceFixture, RequestsGiveUpPastTheRetryBudget)
{
    ServingConfig serving = baseConfig();
    serving.faults = dropSchedule(40.0);
    serving.resilience.recovery = RecoveryPolicy::RetryBackoff;
    serving.resilience.maxRetries = 0;
    const auto report = ServingSimulator(service, serving).run();
    EXPECT_GT(report.batchesKilled, 0u);
    // Zero budget: every killed batch's requests fail immediately.
    EXPECT_EQ(report.retriesTotal, 0u);
    EXPECT_GT(report.failedRequests, 0u);
    EXPECT_EQ(report.completed, serving.requests);
    EXPECT_LT(report.goodputRps, report.throughputRps);
}

TEST_F(ResilienceFixture, NoRecoveryShipsCorruptedBatches)
{
    ServingConfig serving = baseConfig();
    serving.faults = dropSchedule(40.0);
    const auto report = ServingSimulator(service, serving).run();
    EXPECT_EQ(report.recovery, "none");
    EXPECT_EQ(report.batchesKilled, 0u);
    EXPECT_GT(report.failedRequests, 0u);
    EXPECT_EQ(report.completed, serving.requests);
}

TEST_F(ResilienceFixture, GlitchStallIsNotCheckpointableProgress)
{
    // Regression: a link-glitch stall stretches the wall clock but
    // computes nothing, so a later checkpoint-restart must not count
    // the stall as preserved progress. One chip, one request, hand
    // placed faults — the completion time is exact.
    ServingConfig serving;
    serving.chips = 1;
    serving.requests = 1;
    serving.arrival.kind = ArrivalKind::ClosedLoop;
    serving.arrival.clients = 1;
    serving.batching.maxBatch = 1;
    serving.resilience.recovery = RecoveryPolicy::RetryBackoff;
    serving.resilience.checkpointRestart = true;

    const double s = service.batchSeconds(1);
    serving.resilience.detectLatencySec = 0.05 * s;
    serving.resilience.checkpointIntervalSec = 0.25 * s;

    reliability::FaultScheduleConfig faults;
    faults.chips = 1;
    reliability::FaultEvent glitch;
    glitch.kind = reliability::FaultKind::LinkGlitch;
    glitch.timeSec = 0.2 * s;
    glitch.magnitude = 0.2 * s;
    reliability::FaultEvent drop;
    drop.kind = reliability::FaultKind::PulseDrop;
    drop.timeSec = 0.5 * s;
    serving.faults =
        reliability::FaultSchedule::fromEvents(faults, {glitch, drop});

    const auto report = ServingSimulator(service, serving).run();

    // Launch at 0; the glitch pushes completion to 1.2s; corruption
    // at 0.5s has computed only 0.5s - 0.2s = 0.3s of real work, so
    // the restart resumes from the 0.25s checkpoint (not 0.5s) and
    // finishes at detect (0.55s) + remaining (0.75s) = 1.3s.
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(report.restarts, 1u);
    EXPECT_EQ(report.batchesKilled, 1u);
    EXPECT_EQ(report.glitchesAbsorbed, 1u);
    EXPECT_NEAR(report.latencyMax, 1.3 * s, 1e-9 * s);
}

TEST_F(ResilienceFixture, GlitchAfterCorruptionStillCounts)
{
    // Only stall that elapsed *before* the corruption is excluded
    // from progress; the restart wipes any later glitch state. Here
    // the glitch lands after the drop, so the full 0.5s of wall
    // clock is computed progress and the 0.25s-interval checkpoint
    // preserves 0.5s: completion at detect (0.55s) + 0.5s = 1.05s.
    ServingConfig serving;
    serving.chips = 1;
    serving.requests = 1;
    serving.arrival.kind = ArrivalKind::ClosedLoop;
    serving.arrival.clients = 1;
    serving.batching.maxBatch = 1;
    serving.resilience.recovery = RecoveryPolicy::RetryBackoff;
    serving.resilience.checkpointRestart = true;

    const double s = service.batchSeconds(1);
    serving.resilience.detectLatencySec = 0.05 * s;
    serving.resilience.checkpointIntervalSec = 0.25 * s;

    reliability::FaultScheduleConfig faults;
    faults.chips = 1;
    reliability::FaultEvent drop;
    drop.kind = reliability::FaultKind::PulseDrop;
    drop.timeSec = 0.5 * s;
    reliability::FaultEvent glitch;
    glitch.kind = reliability::FaultKind::LinkGlitch;
    glitch.timeSec = 0.52 * s;
    glitch.magnitude = 0.2 * s;
    serving.faults =
        reliability::FaultSchedule::fromEvents(faults, {drop, glitch});

    const auto report = ServingSimulator(service, serving).run();
    EXPECT_EQ(report.restarts, 1u);
    EXPECT_NEAR(report.latencyMax, 1.05 * s, 1e-9 * s);
}

TEST_F(ResilienceFixture, AllChipsQuarantinedFailsRemainingRequests)
{
    // A 1-chip fleet under DegradedDispatch loses its only chip to a
    // flux trap: dispatch has nowhere healthy to go. The run must not
    // serve from known-bad hardware, and must not stop either: it
    // warns once, and every request it can no longer place completes
    // as failed, so the conservation audit still holds.
    ServingConfig serving = baseConfig();
    serving.chips = 1;
    serving.faults = [&] {
        reliability::FaultScheduleConfig faults;
        faults.chips = 1;
        reliability::FaultEvent event;
        event.kind = reliability::FaultKind::FluxTrap;
        event.magnitude = faults.fluxTrapDerate;
        return reliability::FaultSchedule::fromEvents(faults, {event});
    }();
    serving.resilience.recovery = RecoveryPolicy::DegradedDispatch;
    serving.resilience.detectLatencySec = 1e-12;

    ::testing::internal::CaptureStderr();
    const ServingReport report = ServingSimulator(service, serving).run();
    const std::string stderr_text =
        ::testing::internal::GetCapturedStderr();

    EXPECT_NE(stderr_text.find("quarantined"), std::string::npos)
        << stderr_text;
    EXPECT_EQ(report.completed, serving.requests);
    EXPECT_GT(report.failedRequests, 0u);
    // The trap lands at t = 0, before any request: nothing succeeds.
    EXPECT_EQ(report.failedRequests, serving.requests);
    EXPECT_EQ(report.goodputRps, 0.0);
    EXPECT_LT(report.availability, 1.0);
    EXPECT_TRUE(obs::auditServing(report).ok())
        << obs::auditServing(report).summary();
}

TEST_F(ResilienceFixture, PermanentTrapDegradesAvailability)
{
    ServingConfig serving = baseConfig();
    serving.faults = trapChipZero();
    serving.resilience.recovery = RecoveryPolicy::RetryBackoff;
    const auto report = ServingSimulator(service, serving).run();
    // Chip 0 runs on at the trap derate: available but slower, so
    // availability lands strictly between "half the fleet gone" and
    // "untouched".
    EXPECT_GT(report.availability, 0.5);
    EXPECT_LT(report.availability, 1.0);
    EXPECT_EQ(report.completed, serving.requests);
}

} // namespace
} // namespace serving
} // namespace supernpu
