/**
 * @file
 * Resilience policies for fault-injected serving runs.
 *
 * When a reliability::FaultSchedule is attached to a ServingConfig,
 * the serving simulator needs a policy for what happens after a
 * fault corrupts or degrades a chip. Three recovery policies are
 * modeled, chosen to bracket the design space:
 *
 *  - None: faults corrupt in-flight batches and nobody notices;
 *    corrupted requests complete and count as failed. The goodput
 *    floor every real policy must beat.
 *  - RetryBackoff: corruption is detected detectLatencySec after
 *    the fault (an SFQ checksum / voting detector), the batch is
 *    killed, and its requests are re-enqueued with exponential
 *    backoff. Optionally checkpointed so a restart resumes from the
 *    last checkpoint instead of from scratch.
 *  - DegradedDispatch: detection additionally quarantines
 *    permanently-faulted chips; the dispatcher (JSQ or RR) skips
 *    them and in-queue work is re-dispatched to healthy chips.
 *    Once every chip is quarantined, each request that would need a
 *    dispatch target completes as failed instead.
 *
 * All policies share the detection model; they differ in what they
 * do after detection. With no fault schedule attached, resilience is
 * inert and the serving simulator's behavior — every event, every
 * metric — is byte-identical to a build without it.
 */

#ifndef SUPERNPU_SERVING_RESILIENCE_HH
#define SUPERNPU_SERVING_RESILIENCE_HH

namespace supernpu {
namespace serving {

/** What the serving layer does after a detected fault. */
enum class RecoveryPolicy
{
    None,            ///< corrupted work completes, counted failed
    RetryBackoff,    ///< kill + re-enqueue with exponential backoff
    DegradedDispatch,///< RetryBackoff + quarantine of faulted chips
};

/** Stable lowercase name of a recovery policy. */
const char *recoveryPolicyName(RecoveryPolicy policy);

/** Resilience-policy parameters of a serving run. */
struct ResilienceConfig
{
    RecoveryPolicy recovery = RecoveryPolicy::None;

    /**
     * Seconds from a transient fault corrupting a batch to the
     * serving layer noticing (checksum latency). Detection exists
     * under every policy except None.
     */
    double detectLatencySec = 2e-5;

    // --- retry shaping (RetryBackoff and DegradedDispatch) ----------
    /** Attempts per request before it is given up as failed. */
    int maxRetries = 3;
    /** First retry delay; grows by backoffMultiplier per retry. */
    double backoffBaseSec = 1e-4;
    double backoffMultiplier = 2.0;
    /**
     * Give up on a request once the clock passes arrival + this
     * deadline; 0 disables the deadline.
     */
    double retryDeadlineSec = 0.0;

    // --- checkpoint / restart ---------------------------------------
    /**
     * When true, in-flight batches checkpoint their progress every
     * checkpointIntervalSec of service time; a killed batch restarts
     * from its last checkpoint on the same chip instead of being
     * re-enqueued from scratch.
     */
    bool checkpointRestart = false;
    double checkpointIntervalSec = 1e-4;

    /** Panics when malformed. */
    void check() const;
};

} // namespace serving
} // namespace supernpu

#endif // SUPERNPU_SERVING_RESILIENCE_HH
