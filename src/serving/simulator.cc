/**
 * @file
 * Discrete-event serving loop implementation.
 *
 * Event ordering: the heap orders by (time, sequence). The sequence
 * tiebreak makes simultaneous events process in creation order, which
 * keeps runs deterministic across standard-library heap
 * implementations.
 *
 * Timeout events are advisory: a fired timeout only launches a batch
 * if the chip is idle and the queue's own `launchable` test agrees.
 * Stale timeouts (the queue already launched, or grew to a full
 * batch) are no-ops, so the loop never needs to cancel events.
 *
 * Fault events reuse the same discipline: Detect carries the launch
 * generation it was armed for and is a no-op if the batch completed
 * or restarted in the meantime; Done carries its own schedule
 * sequence and is a no-op unless it is the chip's pending completion
 * (a killed or glitch-stretched batch leaves a stale Done behind
 * rather than requiring heap surgery). With an empty fault schedule
 * no fault event is created, no service time is scaled, and the
 * event sequence — hence every metric — is byte-identical to the
 * pre-fault simulator.
 */

#include "simulator.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <queue>

#include "common/logging.hh"
#include "perf/profile.hh"
#include "sharding/collective.hh"

namespace supernpu {
namespace serving {

void
ServingConfig::check() const
{
    arrival.check();
    batching.check();
    if (chips < 1)
        fatal("serving needs at least one chip");
    if (chips > kMaxServingChips)
        fatal("serving supports at most ", kMaxServingChips,
              " chips, got ", chips);
    if (requests < 1)
        fatal("serving needs at least one request");
    if (pipelineStages < 1)
        fatal("pipelineStages must be at least 1, got ",
              pipelineStages);
    if (chips % pipelineStages != 0) {
        fatal("pipelined serving needs chips divisible by the stage "
              "count: ", chips, " chips, ", pipelineStages,
              " stages");
    }
    if (dataParallelReplicas < 1)
        fatal("dataParallelReplicas must be at least 1, got ",
              dataParallelReplicas);
    if (dataParallelReplicas > 1 && pipelineStages > 1) {
        fatal("data-parallel replica groups cannot be combined with "
              "pipelined placement in serving (no hybrid placement "
              "model); pick one of --dp and --stages");
    }
    if (chips % (pipelineStages * dataParallelReplicas) != 0) {
        fatal("replicated serving needs chips divisible by the "
              "replica count: ", chips, " chips, ",
              dataParallelReplicas, " replicas");
    }
    link.check();
    resilience.check();
    if (pipelineStages > 1 && resilience.checkpointRestart) {
        fatal("checkpoint-restart resilience is not supported with "
              "pipelined placement (no per-stage checkpoint model); "
              "use retry or degraded-dispatch recovery");
    }
    if (dataParallelReplicas > 1 && resilience.checkpointRestart) {
        fatal("checkpoint-restart resilience is not supported with "
              "data-parallel replica groups (no distributed "
              "checkpoint model); use retry or degraded-dispatch "
              "recovery");
    }
    if (!faults.empty() && faults.config().chips != chips)
        fatal("fault schedule covers ", faults.config().chips,
              " chips but the serving config has ", chips);
}

namespace {

/** Event kinds of the calendar queue. */
enum class EventKind
{
    Arrival,   ///< one request enters the system
    Timeout,   ///< a chip's batch-timeout deadline passed
    Done,      ///< a chip finished its in-flight batch
    Fault,     ///< a scheduled hardware fault strikes
    Detect,    ///< corruption detection latency elapsed
    Quarantine,///< a permanently-faulted chip is taken out
    Retry,     ///< a killed request's backoff expired
    StageFree, ///< a pipeline group's stage 0 can accept a batch
};

/** One scheduled event. */
struct Event
{
    double timeSec;
    std::uint64_t seq; ///< creation order, the determinism tiebreak
    EventKind kind;
    int chip; ///< Timeout/Done/Fault/... target; unused for arrivals
    /**
     * Fault: index into the fault schedule. Detect: the launch
     * generation it was armed for. Unused otherwise.
     */
    std::uint64_t tag = 0;
    /** The re-enqueued request of a Retry event. */
    Request retryRequest{};
};

/** Min-heap ordering on (time, seq). */
struct EventAfter
{
    bool operator()(const Event &a, const Event &b) const
    {
        if (a.timeSec != b.timeSec)
            return a.timeSec > b.timeSec;
        return a.seq > b.seq;
    }
};

/** Sentinel: no completion pending. */
constexpr std::uint64_t kNoSeq =
    std::numeric_limits<std::uint64_t>::max();

/**
 * One batch streaming through a K-stage pipeline group. Launched
 * back to back, several can be in flight in one group at once; the
 * deque stays FIFO-ordered by completion.
 */
struct PipeBatch
{
    std::vector<Request> requests;
    double launchSec = 0.0;
    double doneSec = 0.0;
    std::uint64_t doneSeq = 0; ///< valid Done event for this batch
    bool corrupted = false;
    /** Per-stage busy windows, offsets from launchSec (derated). */
    std::vector<double> stageStartSec;
    std::vector<double> stageBusySec;
};

/**
 * One dispatch target: a single NPU die, or — in pipelined mode — a
 * whole K-chip pipeline group sharing one batch queue.
 */
struct Chip
{
    explicit Chip(const BatchingConfig &batching) : queue(batching) {}

    BatchQueue queue;
    bool busy = false;
    std::vector<Request> inFlight;

    // --- pipelined-mode state (unused when pipelineStages == 1) -----
    std::deque<PipeBatch> pipeInFlight;
    double lastPipeDoneSec = 0.0; ///< FIFO floor for completions
    double freeSec = 0.0;         ///< when stage 0 frees
    std::uint64_t pendingFreeSeq = kNoSeq; ///< valid StageFree event
    /**
     * Per stage lane: when the busy time charged for link-glitch
     * stalls ends. A stall only occupies the struck chip while the
     * group still has batches to ship, so when a Detect wave empties
     * the group the unexpired remainder is given back. Sized K on
     * the first glitch.
     */
    std::vector<double> stallUntilSec;

    // --- fault state (inert without a fault schedule) ---------------
    std::uint64_t launchGen = 0;  ///< increments per (re)launch
    std::uint64_t pendingDoneSeq = kNoSeq; ///< valid Done event
    double launchSec = 0.0;  ///< current batch launch time
    double serviceSec = 0.0; ///< current batch service time (work)
    double doneSec = 0.0;    ///< current batch completion time
    /**
     * Link-glitch stall accumulated by the current batch. Stalls
     * stretch doneSec but are NOT service work: checkpoints cover
     * computed progress only, so the restart math must never treat
     * glitch delay as checkpointable.
     */
    double glitchSec = 0.0;
    bool corrupted = false;  ///< in-flight results are garbage
    double corruptedAtSec = 0.0;
    double glitchAtCorruptSec = 0.0; ///< glitchSec when corrupted
    double permDerate = 1.0; ///< flux-trap service multiplier
    bool quarantined = false;
    double skewUntilSec = 0.0; ///< clock-skew window end
    double skewFactor = 1.0;   ///< service multiplier in the window

    int outstanding() const
    {
        int pipelined = 0;
        for (const PipeBatch &batch : pipeInFlight)
            pipelined += (int)batch.requests.size();
        return (int)queue.depth() + (int)inFlight.size() + pipelined;
    }
};

} // namespace

ServingSimulator::ServingSimulator(const BatchServiceModel &service,
                                   const ServingConfig &config)
    : _service(service), _cfg(config)
{
    _cfg.check();
}

ServingReport
ServingSimulator::run()
{
    perf::Scope perf_scope("serving.run");
    // The calendar's backing store is sized up front: steady state
    // carries roughly one pending completion/timeout pair per
    // dispatch target plus the arrival chain, and the whole fault
    // schedule lands on the calendar at seed time. Reserving once
    // keeps the heap from reallocating mid-run.
    std::vector<Event> calendar;
    calendar.reserve(_cfg.faults.events().size() +
                     (std::size_t)_cfg.chips * 4 +
                     (std::size_t)_cfg.arrival.clients + 64);
    std::priority_queue<Event, std::vector<Event>, EventAfter> events(
        EventAfter{}, std::move(calendar));
    std::uint64_t next_seq = 0;
    const auto schedule = [&](double time, EventKind kind, int chip) {
        events.push(Event{time, next_seq++, kind, chip});
        return next_seq - 1;
    };
    const auto schedule_tagged = [&](double time, EventKind kind,
                                     int chip, std::uint64_t tag) {
        events.push(Event{time, next_seq++, kind, chip, tag});
    };
    const auto schedule_retry = [&](double time,
                                    const Request &request) {
        events.push(
            Event{time, next_seq++, EventKind::Retry, -1, 0, request});
    };

    // Grouped placement: dispatch targets are G-chip groups — K-stage
    // pipelines or R-replica data-parallel sets (mutually exclusive,
    // so G = K·R is whichever exceeds 1) — not single dies. G == 1
    // keeps n_targets == chips and leaves every code path below
    // byte-identical to the pre-partition, pre-sharding loop.
    const int K = _cfg.pipelineStages;
    const int R = _cfg.dataParallelReplicas;
    const int G = K * R;
    const bool pipelined = K > 1;
    const bool replicated = R > 1;
    const int n_targets = _cfg.chips / G;
    std::unique_ptr<partition::PipelineServiceModel> pipe;
    if (pipelined) {
        pipe = std::make_unique<partition::PipelineServiceModel>(
            _service.estimate(), _service.network(), K, _cfg.link,
            _service.cache());
    }
    // Ring all-gather of a replica group's results, in seconds at
    // the design point's clock (zero when not replicated).
    const double freq_ghz = _service.estimate().frequencyGhz;
    const auto gather_sec = [&](int size) {
        if (!replicated)
            return 0.0;
        const std::uint64_t bytes = partition::activationBytes(
            _service.network().layers.back(), size);
        return (double)sharding::allGatherCost(_cfg.link, R, bytes,
                                               freq_ghz)
                   .cycles /
               (freq_ghz * 1e9);
    };

    ArrivalProcess arrivals(_cfg.arrival, _cfg.seed);
    Dispatcher dispatcher(_cfg.dispatch, n_targets);
    MetricsCollector metrics(_cfg.chips);
    const ResilienceConfig &res = _cfg.resilience;

    std::vector<Chip> chips(n_targets, Chip(_cfg.batching));
    std::uint64_t injected = 0;  ///< arrival events created
    std::uint64_t arrived = 0;   ///< requests that entered a queue
    std::uint64_t completed = 0;
    std::uint64_t events_processed = 0; ///< calendar pops
    double clock = 0.0;

    int quarantined_count = 0;
    std::uint64_t faults_seen = 0;
    std::uint64_t batches_killed = 0;
    std::uint64_t requests_killed = 0;
    std::uint64_t retries_total = 0;
    std::uint64_t retry_give_ups = 0;
    std::uint64_t restarts = 0;
    std::uint64_t redispatches = 0;
    std::uint64_t glitches_absorbed = 0;
    std::uint64_t failed_requests = 0;

    // Total queued (not-yet-launched) requests across every target,
    // maintained incrementally at each queue push and pop. The
    // metrics collector samples it on every calendar pop, which made
    // re-summing it there an O(targets) cost on the hottest line.
    std::size_t queued_depth = 0;

    // Steady state recycles batch buffers and pipeline-batch records
    // instead of allocating per launch: completed ones park here with
    // their capacity intact.
    std::vector<std::vector<Request>> spare_batches;
    std::vector<PipeBatch> spare_pipe;
    const auto take_batch_buffer = [&]() {
        if (spare_batches.empty())
            return std::vector<Request>();
        std::vector<Request> buffer = std::move(spare_batches.back());
        spare_batches.pop_back();
        return buffer;
    };
    const auto recycle_batch_buffer =
        [&](std::vector<Request> &&buffer) {
            buffer.clear();
            spare_batches.push_back(std::move(buffer));
        };

    // A request leaves the system: record it, count it, and let a
    // closed-loop client think and re-ask.
    const auto complete_request = [&](const Request &request,
                                      bool failed) {
        metrics.recordLatency(clock - request.arrivalSec);
        ++completed;
        if (failed)
            ++failed_requests;
        if (!arrivals.openLoop() && injected < _cfg.requests) {
            schedule(clock + arrivals.thinkGapSec(), EventKind::Arrival,
                     -1);
            ++injected;
        }
    };

    // A killed batch's requests back off and re-enter, or give up
    // past their retry/deadline budget. Shared by the single-chip
    // and pipelined Detect paths.
    const auto kill_requests = [&](std::vector<Request> &requests) {
        for (Request request : requests) {
            ++requests_killed;
            ++request.retries;
            const bool over_retries =
                request.retries > res.maxRetries;
            const bool over_deadline =
                res.retryDeadlineSec > 0 &&
                clock - request.arrivalSec >= res.retryDeadlineSec;
            if (over_retries || over_deadline) {
                ++retry_give_ups;
                complete_request(request, true);
                continue;
            }
            double backoff = res.backoffBaseSec;
            for (int i = 1; i < request.retries; ++i)
                backoff *= res.backoffMultiplier;
            ++retries_total;
            schedule_retry(clock + backoff, request);
        }
    };

    // Dispatch target for a new or re-enqueued request. With no
    // healthy target left the run would have to "serve" from
    // known-bad hardware, so it stops instead.
    const auto pick_target = [&]() {
        if (quarantined_count >= n_targets) {
            fatal("all ", n_targets,
                  pipelined     ? " pipeline group(s)"
                  : replicated  ? " replica group(s)"
                                : " chip(s)",
                  " quarantined: no "
                  "healthy dispatch target remains (permanent "
                  "faults exceeded the cluster's redundancy)");
        }
        return dispatcher.pick();
    };

    // Put a batch in service. Fault-free, the service-time guards
    // never fire and this is the original launch path bit for bit.
    const auto launch_batch = [&](int index,
                                  std::vector<Request> batch) {
        Chip &chip = chips[index];
        if (pipelined) {
            // The batch streams through the group's K stages:
            // stage 0 frees one (derated) initiation interval after
            // launch, results emerge a full pipeline latency later,
            // and completions stay FIFO — a faster later batch
            // queues behind its predecessor's drain.
            const int size = (int)batch.size();
            const partition::PipelineServiceModel::Timing timing =
                pipe->timing(size);
            double scale = chip.permDerate;
            if (clock < chip.skewUntilSec)
                scale *= chip.skewFactor;
            PipeBatch pipe_batch;
            if (!spare_pipe.empty()) {
                pipe_batch = std::move(spare_pipe.back());
                spare_pipe.pop_back();
            }
            pipe_batch.corrupted = false;
            pipe_batch.requests = std::move(batch);
            pipe_batch.launchSec = clock;
            pipe_batch.doneSec =
                std::max(clock + timing.latencySec * scale,
                         chip.lastPipeDoneSec);
            pipe_batch.stageStartSec.resize((std::size_t)K);
            pipe_batch.stageBusySec.resize((std::size_t)K);
            for (int stage = 0; stage < K; ++stage) {
                pipe_batch.stageStartSec[(std::size_t)stage] =
                    timing.stageStartSec[(std::size_t)stage] * scale;
                pipe_batch.stageBusySec[(std::size_t)stage] =
                    timing.stageBusySec[(std::size_t)stage] * scale;
            }
            chip.lastPipeDoneSec = pipe_batch.doneSec;
            metrics.recordPipelinedBatch(index * G, size,
                                         pipe_batch.stageBusySec);
            pipe_batch.doneSeq =
                schedule(pipe_batch.doneSec, EventKind::Done, index);
            chip.busy = true;
            chip.freeSec = clock + timing.intervalSec * scale;
            chip.pendingFreeSeq =
                schedule(chip.freeSec, EventKind::StageFree, index);
            chip.pipeInFlight.push_back(std::move(pipe_batch));
            return;
        }
        chip.inFlight = std::move(batch);
        chip.busy = true;
        chip.corrupted = false;
        chip.glitchSec = 0.0;
        chip.glitchAtCorruptSec = 0.0;
        ++chip.launchGen;
        const int size = (int)chip.inFlight.size();
        double service;
        if (replicated) {
            // The batch splits into near-equal shares; the group is
            // busy for the widest share's service plus the ring
            // all-gather of the results. A derate on any replica
            // (the group state is shared) throttles the group.
            const int share = (size + R - 1) / R;
            service =
                _service.batchSeconds(share) + gather_sec(size);
        } else {
            service = _service.batchSeconds(size);
        }
        if (chip.permDerate != 1.0)
            service *= chip.permDerate;
        if (clock < chip.skewUntilSec)
            service *= chip.skewFactor;
        chip.launchSec = clock;
        chip.serviceSec = service;
        chip.doneSec = clock + service;
        if (replicated) {
            // The launch counts once; every replica chip is busy
            // until the gather completes.
            metrics.recordPipelinedBatch(
                index * G, size,
                std::vector<double>((std::size_t)R, service));
        } else {
            metrics.recordBatch(index, size, service);
        }
        chip.pendingDoneSeq =
            schedule(chip.doneSec, EventKind::Done, index);
    };

    // Launch a batch on an idle chip when its queue allows; otherwise
    // arm the queue's next timeout deadline. Every push, completion
    // and kill on a target is followed by a try_launch on it, and a
    // launch only moves requests from queue to flight, so reporting
    // the load here keeps the dispatcher's view exact.
    const auto try_launch = [&](int index) {
        Chip &chip = chips[index];
        dispatcher.setLoad(index, chip.outstanding());
        if (chip.busy || !chip.queue.launchable(clock)) {
            const double deadline = chip.queue.nextDeadlineSec();
            if (!chip.busy && deadline > clock &&
                deadline < std::numeric_limits<double>::infinity()) {
                schedule(deadline, EventKind::Timeout, index);
            }
            return;
        }
        std::vector<Request> batch = take_batch_buffer();
        chip.queue.popInto(batch);
        queued_depth -= batch.size();
        launch_batch(index, std::move(batch));
    };

    // A single-chip batch leaves flight (completed or killed): free
    // the chip and try the next launch on it.
    const auto release_chip = [&](int index) {
        Chip &chip = chips[index];
        recycle_batch_buffer(std::move(chip.inFlight));
        chip.inFlight.clear();
        chip.busy = false;
        chip.corrupted = false;
        chip.pendingDoneSeq = kNoSeq;
        try_launch(index);
    };

    // Seed the calendar: open-loop sources self-schedule; closed-loop
    // clients all fire their first request at t = 0.
    if (arrivals.openLoop()) {
        schedule(arrivals.nextGapSec(), EventKind::Arrival, -1);
        ++injected;
    } else {
        const std::uint64_t first = std::min<std::uint64_t>(
            (std::uint64_t)_cfg.arrival.clients, _cfg.requests);
        for (std::uint64_t i = 0; i < first; ++i)
            schedule(0.0, EventKind::Arrival, -1);
        injected = first;
    }

    // Materialized fault schedule onto the calendar. Empty schedule:
    // nothing pushed, sequence numbering untouched.
    for (std::size_t i = 0; i < _cfg.faults.events().size(); ++i) {
        const reliability::FaultEvent &fault = _cfg.faults.events()[i];
        schedule_tagged(fault.timeSec, EventKind::Fault, fault.chip,
                        (std::uint64_t)i);
    }

    while (completed < _cfg.requests) {
        if (events.empty()) {
            // Only reachable when the fixed-batch policy stranded
            // partial batches after the last injection: flush them.
            bool flushed = false;
            for (int i = 0; i < n_targets; ++i) {
                if (!chips[i].busy && !chips[i].queue.empty()) {
                    std::vector<Request> batch = take_batch_buffer();
                    chips[i].queue.popInto(batch);
                    queued_depth -= batch.size();
                    launch_batch(i, std::move(batch));
                    flushed = true;
                }
            }
            SUPERNPU_ASSERT(flushed,
                            "serving deadlock: no events, no work");
            continue;
        }

        const Event event = events.top();
        events.pop();
        ++events_processed;
        if (perf::enabled()) {
            static perf::Counter &perf_events =
                perf::counter("serving.events");
            perf_events.add(1);
        }
        metrics.advanceTo(event.timeSec, queued_depth);
        clock = event.timeSec;

        switch (event.kind) {
          case EventKind::Arrival: {
            const int target = pick_target();
            chips[target].queue.push(Request{arrived++, clock, clock});
            ++queued_depth;
            try_launch(target);
            if (arrivals.openLoop() && injected < _cfg.requests) {
                schedule(clock + arrivals.nextGapSec(),
                         EventKind::Arrival, -1);
                ++injected;
            }
            break;
          }
          case EventKind::Timeout:
            try_launch(event.chip);
            break;
          case EventKind::Done: {
            Chip &chip = chips[event.chip];
            if (pipelined) {
                const auto batch = std::find_if(
                    chip.pipeInFlight.begin(), chip.pipeInFlight.end(),
                    [&](const PipeBatch &candidate) {
                        return candidate.doneSeq == event.seq;
                    });
                if (batch == chip.pipeInFlight.end())
                    break; // stale: killed or glitch-stretched batch
                SUPERNPU_ASSERT(batch == chip.pipeInFlight.begin(),
                                "pipeline completed out of order");
                const bool pipe_failed = batch->corrupted;
                for (const Request &request : batch->requests)
                    complete_request(request, pipe_failed);
                recycle_batch_buffer(std::move(batch->requests));
                spare_pipe.push_back(std::move(*batch));
                chip.pipeInFlight.pop_front();
                try_launch(event.chip);
                break;
            }
            if (event.seq != chip.pendingDoneSeq)
                break; // stale: batch was killed or stretched
            SUPERNPU_ASSERT(chip.busy, "completion on an idle chip");
            // Corruption that outran its detection (or was never
            // detected under the no-recovery policy) ships garbage:
            // the requests complete, and count as failed.
            const bool failed = chip.corrupted;
            for (const Request &request : chip.inFlight)
                complete_request(request, failed);
            release_chip(event.chip);
            break;
          }
          case EventKind::Fault: {
            const reliability::FaultEvent &fault =
                _cfg.faults.events()[(std::size_t)event.tag];
            // Fault events strike physical chips; in grouped mode
            // a chip is one member of group event.chip / G, and a
            // fault on any stage or replica degrades the whole
            // group.
            const int target = event.chip / G;
            Chip &chip = chips[target];
            ++faults_seen;
            const bool detects =
                res.recovery != RecoveryPolicy::None;
            // Corrupt the group's in-flight work and, under a
            // recovering policy, arm its Detect. In pipelined mode
            // corruption hits every batch in flight in the group —
            // each is mid-stream through the faulted stage's
            // pipeline — and Detect is armed once per wave of newly
            // corrupted batches.
            const auto corrupt = [&]() {
                if (pipelined) {
                    bool newly = false;
                    for (PipeBatch &pipe_batch : chip.pipeInFlight) {
                        if (!pipe_batch.corrupted) {
                            pipe_batch.corrupted = true;
                            newly = true;
                        }
                    }
                    if (newly && detects) {
                        schedule_tagged(clock + res.detectLatencySec,
                                        EventKind::Detect, target, 0);
                    }
                } else if (chip.busy && !chip.corrupted) {
                    chip.corrupted = true;
                    chip.corruptedAtSec = clock;
                    chip.glitchAtCorruptSec = chip.glitchSec;
                    if (detects) {
                        schedule_tagged(clock + res.detectLatencySec,
                                        EventKind::Detect, target,
                                        chip.launchGen);
                    }
                }
            };
            switch (fault.kind) {
              case reliability::FaultKind::PulseDrop:
                corrupt();
                break;
              case reliability::FaultKind::FluxTrap:
                // The trap corrupts in-flight work like a drop...
                corrupt();
                // ...and permanently derates the remapped array —
                // in pipelined mode the derated stage throttles the
                // whole group, so the loss covers all K chips.
                chip.permDerate *= fault.magnitude;
                if (!chip.quarantined) {
                    for (int c = target * G; c < (target + 1) * G;
                         ++c) {
                        metrics.setPermanentLoss(
                            c, clock, 1.0 - 1.0 / chip.permDerate);
                    }
                }
                if (res.recovery == RecoveryPolicy::DegradedDispatch &&
                    !chip.quarantined) {
                    schedule_tagged(clock + res.detectLatencySec,
                                    EventKind::Quarantine, target,
                                    0);
                }
                break;
              case reliability::FaultKind::ClockSkew:
                chip.skewUntilSec = clock + fault.durationSec;
                chip.skewFactor = fault.magnitude;
                // A skewed clock slows every launch of the group
                // for the window: all G chips lose capacity.
                for (int c = target * G; c < (target + 1) * G; ++c) {
                    metrics.addTransientLoss(
                        c, fault.durationSec *
                               (1.0 - 1.0 / fault.magnitude));
                }
                break;
              case reliability::FaultKind::LinkGlitch:
                if (pipelined) {
                    if (chip.pipeInFlight.empty())
                        break;
                    // The stalled link pauses the whole stream:
                    // every in-flight batch and the stage-0 free
                    // time slip by the stall. The struck physical
                    // chip is the one occupied by the stall.
                    for (PipeBatch &pipe_batch : chip.pipeInFlight) {
                        pipe_batch.doneSec += fault.magnitude;
                        pipe_batch.doneSeq =
                            schedule(pipe_batch.doneSec,
                                     EventKind::Done, target);
                    }
                    chip.lastPipeDoneSec += fault.magnitude;
                    if (chip.busy) {
                        chip.freeSec += fault.magnitude;
                        chip.pendingFreeSeq =
                            schedule(chip.freeSec,
                                     EventKind::StageFree, target);
                    }
                    metrics.extendBusy(event.chip, fault.magnitude);
                    metrics.addTransientLoss(event.chip,
                                             fault.magnitude);
                    // Stalls on the same lane serialize: a second
                    // glitch during a pending stall extends it.
                    if (chip.stallUntilSec.empty()) {
                        chip.stallUntilSec.assign((std::size_t)K,
                                                  0.0);
                    }
                    const std::size_t lane =
                        (std::size_t)(event.chip - target * K);
                    chip.stallUntilSec[lane] =
                        std::max(chip.stallUntilSec[lane], clock) +
                        fault.magnitude;
                    ++glitches_absorbed;
                } else if (chip.busy) {
                    // The stall delays completion and occupies the
                    // chip, but it is not computed work: serviceSec
                    // stays pure so checkpoint-restart math never
                    // counts glitch delay as checkpointable. In a
                    // replica group the gather blocks on the stalled
                    // link, so every replica rides the stall out;
                    // the transient capacity loss is the struck
                    // link's chip alone.
                    chip.doneSec += fault.magnitude;
                    chip.glitchSec += fault.magnitude;
                    chip.pendingDoneSeq = schedule(
                        chip.doneSec, EventKind::Done, target);
                    for (int c = target * G; c < (target + 1) * G;
                         ++c) {
                        metrics.extendBusy(c, fault.magnitude);
                    }
                    metrics.addTransientLoss(event.chip,
                                             fault.magnitude);
                    ++glitches_absorbed;
                }
                break;
            }
            break;
          }
          case EventKind::Detect: {
            Chip &chip = chips[event.chip];
            if (pipelined) {
                // Kill every corrupted batch still in flight in the
                // group; each one's requests retry or give up. A
                // wave that already drained leaves a stale no-op.
                const bool tail_live =
                    !chip.pipeInFlight.empty() &&
                    !chip.pipeInFlight.back().corrupted;
                bool killed_any = false;
                for (auto batch = chip.pipeInFlight.begin();
                     batch != chip.pipeInFlight.end();) {
                    if (!batch->corrupted) {
                        ++batch;
                        continue;
                    }
                    killed_any = true;
                    ++batches_killed;
                    // Give back each stage's unspent busy tail.
                    for (int stage = 0; stage < K; ++stage) {
                        const double start =
                            batch->launchSec +
                            batch->stageStartSec[(std::size_t)stage];
                        const double busy =
                            batch->stageBusySec[(std::size_t)stage];
                        const double unspent = std::min(
                            std::max(start + busy - clock, 0.0),
                            busy);
                        if (unspent > 0.0) {
                            metrics.extendBusy(
                                event.chip * K + stage, -unspent);
                        }
                    }
                    kill_requests(batch->requests);
                    recycle_batch_buffer(std::move(batch->requests));
                    spare_pipe.push_back(std::move(*batch));
                    batch = chip.pipeInFlight.erase(batch);
                }
                if (!killed_any)
                    break; // stale: completed meanwhile
                chip.lastPipeDoneSec =
                    chip.pipeInFlight.empty()
                        ? 0.0
                        : chip.pipeInFlight.back().doneSec;
                // With nothing left to ship, any unexpired glitch
                // stall no longer occupies its lane: give the busy
                // time back (a surviving batch, by contrast, rides
                // the stall out and keeps it charged). The transient
                // availability loss stays — the glitch did happen.
                if (chip.pipeInFlight.empty()) {
                    for (std::size_t lane = 0;
                         lane < chip.stallUntilSec.size(); ++lane) {
                        const double pending =
                            chip.stallUntilSec[lane] - clock;
                        if (pending > 0.0) {
                            metrics.extendBusy(
                                event.chip * K + (int)lane,
                                -pending);
                        }
                        chip.stallUntilSec[lane] = 0.0;
                    }
                }
                // If the newest launch died, stage 0 is free now —
                // its pending StageFree becomes stale.
                if (!tail_live && chip.busy) {
                    chip.busy = false;
                    chip.pendingFreeSeq = kNoSeq;
                }
                try_launch(event.chip);
                break;
            }
            if (!chip.busy || chip.launchGen != event.tag ||
                !chip.corrupted) {
                break; // stale: completed or restarted meanwhile
            }
            ++batches_killed;
            // The group stops now; give back every member's unspent
            // busy tail (one chip per target when G == 1).
            for (int c = event.chip * G; c < (event.chip + 1) * G;
                 ++c) {
                metrics.extendBusy(c, -(chip.doneSec - clock));
            }
            if (res.checkpointRestart) {
                // Resume from the last checkpoint before corruption,
                // on the same chip. Progress counts computed work
                // only: any glitch stall that elapsed before the
                // corruption stretched the wall clock without
                // producing checkpointable results.
                const double interval = res.checkpointIntervalSec;
                const double progress = std::max(
                    0.0, chip.corruptedAtSec - chip.launchSec -
                             chip.glitchAtCorruptSec);
                const double preserved =
                    std::floor(progress / interval) * interval;
                const double remaining = chip.serviceSec - preserved;
                chip.corrupted = false;
                chip.glitchSec = 0.0;
                chip.glitchAtCorruptSec = 0.0;
                ++chip.launchGen;
                ++restarts;
                chip.launchSec = clock - preserved;
                chip.doneSec = clock + remaining;
                metrics.extendBusy(event.chip, remaining);
                chip.pendingDoneSeq =
                    schedule(chip.doneSec, EventKind::Done, event.chip);
            } else {
                // Kill the batch; requests back off and re-enter,
                // or give up past their retry/deadline budget.
                kill_requests(chip.inFlight);
                release_chip(event.chip);
            }
            break;
          }
          case EventKind::Quarantine: {
            Chip &chip = chips[event.chip];
            if (chip.quarantined)
                break;
            chip.quarantined = true;
            ++quarantined_count;
            dispatcher.quarantine(event.chip);
            // A quarantined group takes all G of its chips out.
            for (int c = event.chip * G; c < (event.chip + 1) * G;
                 ++c) {
                metrics.setPermanentLoss(c, clock, 1.0);
            }
            // Its queued work moves to healthy chips.
            std::vector<Request> moved;
            while (!chip.queue.empty()) {
                std::vector<Request> chunk = chip.queue.flush();
                queued_depth -= chunk.size();
                moved.insert(moved.end(), chunk.begin(), chunk.end());
            }
            for (Request request : moved) {
                request.enqueueSec = clock;
                const int target = pick_target();
                chips[target].queue.push(request);
                ++queued_depth;
                ++redispatches;
                try_launch(target);
            }
            break;
          }
          case EventKind::Retry: {
            Request request = event.retryRequest;
            request.enqueueSec = clock;
            const int target = pick_target();
            chips[target].queue.push(request);
            ++queued_depth;
            try_launch(target);
            break;
          }
          case EventKind::StageFree: {
            Chip &chip = chips[event.chip];
            if (event.seq != chip.pendingFreeSeq)
                break; // stale: glitch-stretched or batch killed
            chip.pendingFreeSeq = kNoSeq;
            chip.busy = false;
            try_launch(event.chip);
            break;
          }
        }
    }

    SUPERNPU_ASSERT(arrived == _cfg.requests &&
                        completed == _cfg.requests,
                    "serving run lost requests");
    SUPERNPU_ASSERT(queued_depth == 0,
                    "serving run ended with queued requests");

    ServingReport report = metrics.finish(clock);
    report.network = _service.network().name;
    report.configName = _service.estimate().config.name;
    report.chips = _cfg.chips;
    report.arrival = arrivalKindName(_cfg.arrival.kind);
    report.policy = batchPolicyName(_cfg.batching.policy);
    report.dispatch = dispatchPolicyName(_cfg.dispatch);
    report.maxBatch = _cfg.batching.maxBatch;
    report.pipelineStages = K;
    report.pipelineGroups = n_targets;
    report.dataParallelReplicas = R;
    report.replicaGroups = n_targets;
    report.generated = arrived;
    report.eventsProcessed = events_processed;
    report.offeredRps = arrivals.openLoop()
                            ? _cfg.arrival.ratePerSec
                            : report.throughputRps;

    report.resilienceActive = !_cfg.faults.empty();
    report.recovery = recoveryPolicyName(res.recovery);
    report.faultsScheduled = (std::uint64_t)_cfg.faults.size();
    report.faultsInjected = faults_seen;
    report.batchesKilled = batches_killed;
    report.requestsKilled = requests_killed;
    report.retriesTotal = retries_total;
    report.retryGiveUps = retry_give_ups;
    report.restarts = restarts;
    report.redispatches = redispatches;
    report.glitchesAbsorbed = glitches_absorbed;
    report.failedRequests = failed_requests;
    if (report.makespanSec > 0.0) {
        report.goodputRps =
            (double)(completed - failed_requests) / report.makespanSec;
    }
    return report;
}

} // namespace serving
} // namespace supernpu
