/**
 * @file
 * Multi-NPU request dispatcher for scale-out serving: several SFQ
 * NPU dies share one cryostat (see examples/scaleout_study.cpp), and
 * a front end spreads incoming requests across them.
 *
 *  - round-robin: stateless rotation, oblivious to queue state;
 *  - join-shortest-queue: send each request to the chip with the
 *    fewest outstanding requests (queued + in flight), the classic
 *    latency-optimal heuristic when service times are uniform
 *    across chips.
 *
 * The dispatcher owns its view of every target's load: the serving
 * loop reports each change through `setLoad`, so `pick` never has to
 * look at every target. JSQ keeps a tournament tree over
 * (outstanding, index) whose root is the answer — O(1) per pick,
 * O(log targets) per load update.
 */

#ifndef SUPERNPU_SERVING_DISPATCH_HH
#define SUPERNPU_SERVING_DISPATCH_HH

#include <cstdint>
#include <vector>

namespace supernpu {
namespace serving {

/** Request-to-chip placement discipline. */
enum class DispatchPolicy
{
    RoundRobin,
    JoinShortestQueue,
};

/** Stable lowercase name of a dispatch policy. */
const char *dispatchPolicyName(DispatchPolicy policy);

/** Picks a target chip for each incoming request. */
class Dispatcher
{
  public:
    /** Every target starts healthy with zero outstanding requests. */
    Dispatcher(DispatchPolicy policy, int targets);

    /**
     * Record a target's outstanding request count (queued + in
     * service). Ignored by round-robin and for quarantined targets.
     */
    void setLoad(int target, int outstanding);

    /** Take a target out of dispatch for good (degraded mode). */
    void quarantine(int target);

    /**
     * Choose the target for the next request, skipping quarantined
     * ones. Round-robin rotates to the next healthy target; JSQ
     * returns the least-loaded healthy target, ties to the lowest
     * index. At least one target must be healthy.
     */
    int pick();

    DispatchPolicy policy() const { return _policy; }

  private:
    /** Re-key one JSQ leaf and repair its ancestors. */
    void update(int target, int key);

    DispatchPolicy _policy;
    int _targets;
    int _next = 0; ///< round-robin cursor
    std::vector<char> _quarantined;
    int _leaves = 0; ///< JSQ tree width: power of two >= targets
    /**
     * JSQ tournament tree, heap-ordered (node n has children 2n and
     * 2n+1, leaves at [_leaves, 2·_leaves)). Each node holds the
     * minimum entry below it; quarantined and padding leaves carry
     * key INT_MAX, so the root is the lowest-index least-loaded
     * healthy target.
     */
    std::vector<std::uint64_t> _tree;
};

} // namespace serving
} // namespace supernpu

#endif // SUPERNPU_SERVING_DISPATCH_HH
