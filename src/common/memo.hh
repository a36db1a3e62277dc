/**
 * @file
 * Thread-safe single-flight memo: the one cache algorithm every
 * memoized simulation result in this repository goes through.
 *
 * getOrCompute(key, fn) returns the stored value for `key`, or runs
 * fn() on the calling thread and stores what it returns. A lookup
 * holds one mutex; a miss releases it while fn() runs, so misses on
 * different keys proceed in parallel. Concurrent misses on the SAME
 * key collapse into one flight: the first arrival computes, later
 * arrivals block until the value lands and then share it. An
 * exception from fn() reaches the leader and every waiter, and the
 * key stays absent, so a later call computes it afresh.
 *
 * Accounting: the leader counts a miss and every waiter counts a
 * hit — exactly what the serial run counts, since it would find the
 * leader's entry resident by the time it reached the same lookup.
 * Hit/miss/eviction totals are therefore identical at any ThreadPool
 * job count, which the byte-compared planner, check and serving
 * ledgers rely on.
 *
 * Entries are kept in least-recently-used order and evicted past an
 * optional capacity (0 = unbounded). Values are handed out as
 * shared_ptr<const V>, so a value stays valid while a caller holds
 * it even if it is evicted meanwhile.
 */

#ifndef SUPERNPU_COMMON_MEMO_HH
#define SUPERNPU_COMMON_MEMO_HH

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "perf/profile.hh"

namespace supernpu {

/** Monotonically-counted memo statistics. */
struct MemoStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
};

/** Single-flight, optionally LRU-bounded memo of Key -> const Value. */
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class SingleFlightMemo
{
  public:
    /**
     * @param capacity LRU bound on resident entries; 0 = unbounded.
     * @param hit_counter, miss_counter perf::counter names that
     *        tally hits and misses while profiling is enabled; null
     *        for none.
     */
    explicit SingleFlightMemo(std::size_t capacity = 0,
                              const char *hit_counter = nullptr,
                              const char *miss_counter = nullptr)
        : _capacity(capacity), _hitName(hit_counter),
          _missName(miss_counter)
    {
    }

    /**
     * The stored value for `key`, computing it with `compute()` on
     * this thread when absent. `compute` must be deterministic for
     * the key and must not re-enter this memo for the same key; it
     * may use the memo for other keys (no lock is held while it
     * runs, and the in-flight wait is per key).
     */
    template <typename Compute>
    std::shared_ptr<const Value> getOrCompute(const Key &key,
                                              Compute &&compute)
    {
        std::shared_ptr<Flight> flight;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            if (auto value = peekLocked(key)) {
                countLocked(true);
                return value;
            }
            const auto it = _inflight.find(key);
            if (it != _inflight.end()) {
                // Join the running flight: a hit, as in the serial run.
                countLocked(true);
                flight = it->second;
                _flightDone.wait(lock, [&] { return flight->done; });
                if (flight->error)
                    std::rethrow_exception(flight->error);
                return flight->value;
            }
            countLocked(false);
            flight = std::make_shared<Flight>();
            _inflight.emplace(key, flight);
        }
        // Leader: compute outside the lock.
        std::shared_ptr<const Value> value;
        std::exception_ptr error;
        try {
            value = std::make_shared<const Value>(compute());
        } catch (...) {
            error = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(_mutex);
            if (value)
                insertLocked(key, value);
            flight->value = value;
            flight->error = error;
            flight->done = true;
            _inflight.erase(key);
        }
        _flightDone.notify_all();
        if (error)
            std::rethrow_exception(error);
        return value;
    }

    /** Lookup without computing; null when absent. Counts a hit or
     *  a miss. */
    std::shared_ptr<const Value> find(const Key &key)
    {
        std::lock_guard<std::mutex> lock(_mutex);
        auto value = peekLocked(key);
        countLocked(value != nullptr);
        return value;
    }

    /** Entries currently resident. */
    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(_mutex);
        return _lru.size();
    }

    /** Hit/miss/eviction counters since construction or clear(). */
    MemoStats stats() const
    {
        std::lock_guard<std::mutex> lock(_mutex);
        return _stats;
    }

    /** Drop every entry and reset the counters. */
    void clear()
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _lru.clear();
        _index.clear();
        _stats = MemoStats{};
    }

  private:
    using Entry = std::pair<Key, std::shared_ptr<const Value>>;

    /** One in-progress computation other threads can wait on. */
    struct Flight
    {
        std::shared_ptr<const Value> value;
        std::exception_ptr error;
        bool done = false; ///< under _mutex
    };

    /** Lookup + LRU promote under the lock; no accounting. */
    std::shared_ptr<const Value> peekLocked(const Key &key)
    {
        const auto it = _index.find(key);
        if (it == _index.end())
            return nullptr;
        _lru.splice(_lru.begin(), _lru, it->second);
        return it->second->second;
    }

    void countLocked(bool hit)
    {
        ++(hit ? _stats.hits : _stats.misses);
        const char *name = hit ? _hitName : _missName;
        if (name && perf::enabled()) {
            perf::Counter *&counter = hit ? _hitCounter : _missCounter;
            if (!counter)
                counter = &perf::counter(name);
            counter->add(1);
        }
    }

    /**
     * Insert under the lock (only a key's flight leader inserts, so
     * the key is absent); evicts LRU entries past capacity.
     */
    void insertLocked(const Key &key, std::shared_ptr<const Value> value)
    {
        _lru.emplace_front(key, std::move(value));
        _index.emplace(key, _lru.begin());
        while (_capacity != 0 && _lru.size() > _capacity) {
            _index.erase(_lru.back().first);
            _lru.pop_back();
            ++_stats.evictions;
        }
    }

    mutable std::mutex _mutex;
    std::condition_variable _flightDone; ///< any flight completed
    std::list<Entry> _lru; ///< front = most recently used
    std::unordered_map<Key, typename std::list<Entry>::iterator, Hash>
        _index;
    std::unordered_map<Key, std::shared_ptr<Flight>, Hash> _inflight;
    std::size_t _capacity;
    MemoStats _stats;
    const char *_hitName;
    const char *_missName;
    perf::Counter *_hitCounter = nullptr;  ///< resolved on first use
    perf::Counter *_missCounter = nullptr; ///< resolved on first use
};

} // namespace supernpu

#endif // SUPERNPU_COMMON_MEMO_HH
