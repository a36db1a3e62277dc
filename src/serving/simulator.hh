/**
 * @file
 * The discrete-event inference-serving simulator: requests arrive
 * (arrival.hh), a dispatcher places them on chips (dispatch.hh),
 * per-chip batch queues form batches (batcher.hh), and each launched
 * batch occupies its chip for the cycle-level service time
 * (service_model.hh). Completion latencies and system occupancy feed
 * the metrics collector (metrics.hh).
 *
 * The event loop is a classic calendar queue over three event kinds:
 * request arrival, batch-timeout expiry, and chip completion. All
 * stochastic choices flow through one seeded common/rng generator,
 * so a (config, seed) pair replays bit-identically.
 *
 * Drain semantics: once the configured request count has been
 * injected, remaining queued requests flush even if the fixed-batch
 * policy would strand a partial batch — so `completed == generated`
 * always holds at the end of run().
 *
 * Fault injection: attaching a reliability::FaultSchedule adds fault
 * events to the calendar — pulse drops corrupt in-flight batches,
 * flux traps permanently derate (and, under degraded dispatch,
 * quarantine) chips, clock-skew windows derate launches, and link
 * glitches stretch in-flight batches. The attached ResilienceConfig
 * decides what happens after detection (resilience.hh). With an
 * empty schedule no fault event is ever created and the run is
 * byte-identical to a fault-free build.
 */

#ifndef SUPERNPU_SERVING_SIMULATOR_HH
#define SUPERNPU_SERVING_SIMULATOR_HH

#include <cstdint>

#include "arrival.hh"
#include "batcher.hh"
#include "dispatch.hh"
#include "metrics.hh"
#include "partition/pipeline_sim.hh"
#include "reliability/fault_model.hh"
#include "resilience.hh"
#include "service_model.hh"

namespace supernpu {
namespace serving {

/**
 * Largest chip count a serving run accepts. Per-chip simulator,
 * dispatcher and metrics state is allocated up front, so an
 * unbounded count would exhaust memory before the run starts.
 */
constexpr int kMaxServingChips = 1 << 20;

/** Full description of one serving experiment. */
struct ServingConfig
{
    ArrivalConfig arrival;
    BatchingConfig batching;
    DispatchPolicy dispatch = DispatchPolicy::JoinShortestQueue;

    int chips = 1;                  ///< identical NPU dies
    std::uint64_t requests = 20000; ///< total requests to inject
    std::uint64_t seed = 0x5e971ce5eedull; ///< RNG seed

    // --- pipeline-parallel placement (src/partition) ----------------
    /**
     * Stages per pipeline group. 1 (the default) places a whole
     * request on one chip — the pre-partition behavior, byte for
     * byte. K > 1 groups the chips into chips/K pipelines: the
     * dispatcher places requests on groups, batches stream through
     * the K stages back to back, a group's stage-0 slot frees one
     * initiation interval after launch, and results emerge a full
     * pipeline fill latency after launch. Requires chips % K == 0;
     * checkpoint-restart resilience is not supported for K > 1
     * (there is no per-stage checkpoint model).
     */
    int pipelineStages = 1;

    // --- data-parallel placement (src/sharding) ---------------------
    /**
     * Replicas per data-parallel group. 1 (the default) is the
     * pre-sharding behavior, byte for byte. R > 1 groups the chips
     * into chips/R replica sets the dispatcher treats as one logical
     * server: a launched batch splits into near-equal shares, every
     * replica chip is busy for the widest share's service time plus
     * the ring all-gather of the results, and a fault on any replica
     * degrades — and under degraded dispatch quarantines — the whole
     * group. Requires chips % R == 0. Mutually exclusive with
     * pipelineStages > 1 (no hybrid serving placement model) and
     * with checkpoint-restart resilience (no distributed checkpoint
     * model).
     */
    int dataParallelReplicas = 1;

    /**
     * Inter-chip link of pipelined groups (K > 1) and of replica
     * groups' all-gather (R > 1).
     */
    partition::LinkConfig link;

    /**
     * Hardware faults to inject; empty (the default) runs fault-free
     * and leaves every output byte-identical to a no-faults build.
     * A non-empty schedule must cover exactly `chips` chips.
     */
    reliability::FaultSchedule faults;
    /** What the serving layer does about detected faults. */
    ResilienceConfig resilience;

    /** Exits through fatal() when malformed. */
    void check() const;
};

/** Runs one serving experiment over a batch service model. */
class ServingSimulator
{
  public:
    ServingSimulator(const BatchServiceModel &service,
                     const ServingConfig &config);

    /** Simulate until every injected request completes. */
    ServingReport run();

  private:
    const BatchServiceModel &_service;
    ServingConfig _cfg;
};

} // namespace serving
} // namespace supernpu

#endif // SUPERNPU_SERVING_SIMULATOR_HH
