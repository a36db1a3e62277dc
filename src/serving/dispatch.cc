/**
 * @file
 * Dispatcher implementation.
 */

#include "dispatch.hh"

#include <algorithm>
#include <climits>

#include "common/logging.hh"

namespace supernpu {
namespace serving {

namespace {

/** JSQ tree entry: key in the high word, target index in the low. */
std::uint64_t
entry(int key, int target)
{
    return (std::uint64_t)key << 32 | (std::uint32_t)target;
}

} // namespace

const char *
dispatchPolicyName(DispatchPolicy policy)
{
    switch (policy) {
      case DispatchPolicy::RoundRobin:
        return "rr";
      case DispatchPolicy::JoinShortestQueue:
        return "jsq";
    }
    panic("bad dispatch policy");
}

Dispatcher::Dispatcher(DispatchPolicy policy, int targets)
    : _policy(policy), _targets(targets)
{
    if (targets < 1)
        fatal("dispatcher needs at least one chip");
    _quarantined.assign((std::size_t)targets, 0);
    if (_policy != DispatchPolicy::JoinShortestQueue)
        return;
    _leaves = 1;
    while (_leaves < targets)
        _leaves *= 2;
    _tree.assign(2 * (std::size_t)_leaves, entry(INT_MAX, 0));
    for (int target = 0; target < targets; ++target)
        _tree[(std::size_t)(_leaves + target)] = entry(0, target);
    for (std::size_t node = (std::size_t)_leaves - 1; node >= 1; --node)
        _tree[node] = std::min(_tree[2 * node], _tree[2 * node + 1]);
}

void
Dispatcher::update(int target, int key)
{
    std::size_t node = (std::size_t)(_leaves + target);
    _tree[node] = entry(key, target);
    // Ties compare on the index word, so the lower index wins them.
    // An ancestor that comes out unchanged leaves everything above it
    // unchanged too.
    for (node /= 2; node >= 1; node /= 2) {
        const std::uint64_t best =
            std::min(_tree[2 * node], _tree[2 * node + 1]);
        if (_tree[node] == best)
            break;
        _tree[node] = best;
    }
}

void
Dispatcher::setLoad(int target, int outstanding)
{
    SUPERNPU_ASSERT(target >= 0 && target < _targets,
                    "dispatch target ", target, " out of range");
    SUPERNPU_ASSERT(outstanding >= 0 && outstanding < INT_MAX,
                    "bad outstanding count ", outstanding);
    if (_policy == DispatchPolicy::JoinShortestQueue &&
        !_quarantined[(std::size_t)target])
        update(target, outstanding);
}

void
Dispatcher::quarantine(int target)
{
    SUPERNPU_ASSERT(target >= 0 && target < _targets,
                    "dispatch target ", target, " out of range");
    _quarantined[(std::size_t)target] = 1;
    if (_policy == DispatchPolicy::JoinShortestQueue)
        update(target, INT_MAX);
}

int
Dispatcher::pick()
{
    if (_policy == DispatchPolicy::RoundRobin) {
        for (int step = 0; step < _targets; ++step) {
            const int target = (_next + step) % _targets;
            if (!_quarantined[(std::size_t)target]) {
                _next = (target + 1) % _targets;
                return target;
            }
        }
        panic("dispatch with every target quarantined");
    }
    const std::uint64_t root = _tree[1];
    if ((int)(root >> 32) == INT_MAX)
        panic("dispatch with every target quarantined");
    return (int)(std::uint32_t)root;
}

} // namespace serving
} // namespace supernpu
