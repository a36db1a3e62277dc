/**
 * @file
 * Workflow benchmark runner: runs one named user workflow back to
 * back for a fixed wall-clock budget and prints every iteration's raw
 * host timings, benchmark-side spans, perf counters and simulated
 * output fingerprint as one JSON line. perfbench/run.py builds this
 * binary, turns the samples into medians and checks the fingerprints
 * against perfbench/reference.json.
 *
 *   workflow_bench --workload <plan_fleet|serve_fleet|serve_faults|
 *                   jsim_fig07> --seed N --seconds S --trace 0|1
 *
 * Every iteration starts from empty simulation caches (the process-
 * wide npusim::SimCache is cleared and the planner, with its
 * partition::LayerTimingCache, is built afresh), because a CLI user
 * pays for a cold cache on every invocation. With --trace 1 the
 * iterations alternate between profiling off and on (perf counters
 * and scopes inside the libraries); the off iterations give the
 * untraced baseline the tracing overhead is measured against.
 * --seconds 0 runs exactly one untraced iteration (reference
 * recording).
 */


#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "dnn/networks.hh"
#include "estimator/npu_estimator.hh"
#include "jsim/cells.hh"
#include "jsim/experiments.hh"
#include "jsim/simulator.hh"
#include "npusim/batch.hh"
#include "npusim/sim_cache.hh"
#include "obs/audit.hh"
#include "obs/json_writer.hh"
#include "obs/ledger.hh"
#include "partition/partitioner.hh"
#include "perf/profile.hh"
#include "reliability/fault_model.hh"
#include "reliability/injector.hh"
#include "serving/simulator.hh"
#include "sharding/planner.hh"
#include "sharding/tensor_shard.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace supernpu;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Named values in insertion order (spans, counters, outputs). */
using Named = std::vector<std::pair<std::string, double>>;

/** One workflow iteration: host times plus what it computed. */
struct Sample
{
    bool traced = false;
    double setupSec = 0.0;
    double runSec = 0.0;
    double coreSec = 0.0;    ///< the workflow call(s) items_per_s uses
    double items = 0.0;      ///< work units the core call completed
    Named setupSpans;        ///< benchmark-side spans inside setup
    Named runSpans;          ///< benchmark-side spans inside run
    Named layers;            ///< per-layer counts and ratios (traced)
    Named fingerprint;       ///< simulated outputs, integers only
    std::vector<std::string> problems; ///< failed invariants
};

/** Time `body` and record it under `name` in `spans`. */
template <class Body>
auto
span(Named &spans, const char *name, Body &&body)
{
    const Clock::time_point start = Clock::now();
    if constexpr (std::is_void_v<decltype(body())>) {
        body();
        spans.emplace_back(name, secondsSince(start));
    } else {
        auto result = body();
        spans.emplace_back(name, secondsSince(start));
        return result;
    }
}

double
spanValue(const Named &spans, const std::string &name)
{
    for (const auto &[key, value] : spans)
        if (key == name)
            return value;
    return 0.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

void
requireOk(Sample &sample, const obs::AuditReport &audit,
          const char *what)
{
    if (!audit.ok())
        sample.problems.push_back(std::string(what) + ": " +
                                  audit.summary());
}

/** The estimated SuperNPU design point every workload starts from. */
estimator::NpuEstimate
estimateSuperNpu(Sample &sample)
{
    return span(sample.setupSpans, "estimator.estimate_s", [] {
        const sfq::CellLibrary library{sfq::DeviceConfig{}};
        return estimator::NpuEstimator(library).estimate(
            estimator::NpuConfig::superNpu());
    });
}

// --- plan_fleet --------------------------------------------------------

constexpr int kPlanBudget = 1024;
constexpr int kPlanBatch = 8;
constexpr int kPlanJobs = 2;

Sample
planFleet(std::uint64_t)
{
    Sample sample;
    const Clock::time_point setup_start = Clock::now();
    const estimator::NpuEstimate estimate = estimateSuperNpu(sample);
    const dnn::Network net = dnn::makeResNet50();
    sample.setupSec = secondsSince(setup_start);

    const Clock::time_point run_start = Clock::now();
    npusim::SimCache &cache = npusim::SimCache::global();
    sharding::HybridPlanner planner(estimate, {}, &cache);
    const sharding::PlanSearch search =
        span(sample.runSpans, "sharding.plan_s", [&] {
            return planner.plan(net, kPlanBudget, kPlanBatch,
                                sharding::PlanObjective::Throughput,
                                kPlanJobs);
        });
    const sharding::ShardPlan &best = search.best();
    span(sample.runSpans, "obs.ledger_s", [&] {
        obs::RunLedger ledger;
        obs::addShardPlan(ledger, best);
        obs::addSimCacheStats(ledger, cache.stats());
        obs::addLayerTimingCacheStats(ledger,
                                      planner.timingCacheStats());
        return ledger.json().size();
    });
    sample.runSec = secondsSince(run_start);
    sample.coreSec = spanValue(sample.runSpans, "sharding.plan_s");
    sample.items = (double)search.evaluated.size();

    requireOk(sample, obs::auditSharding(best), "plan audit");
    sample.fingerprint = {
        {"dp", best.dataParallel},
        {"tp", best.tensorShards},
        {"pp", best.pipelineStages},
        {"interval_cycles", (double)best.intervalCycles},
        {"plans", (double)search.evaluated.size()},
    };
    if (!perf::enabled())
        return sample;

    // Counters first: the probes below simulate too.
    const perf::Report counters = perf::report();
    const double evaluations =
        (double)counters.counterValue("planner.evaluations");
    const double hits = (double)counters.counterValue("simCache.hits");
    const double misses =
        (double)counters.counterValue("simCache.misses");
    const partition::LayerTimingCacheStats timing =
        planner.timingCacheStats();

    // Probe: one network hash, averaged over a fixed repeat count.
    constexpr int kHashRepeats = 200;
    const std::uint64_t first_hash = npusim::hashNetwork(net);
    int unstable = 0;
    const Clock::time_point hash_start = Clock::now();
    for (int i = 0; i < kHashRepeats; ++i)
        unstable += npusim::hashNetwork(net) != first_hash;
    const double hash_us =
        secondsSince(hash_start) * 1e6 / kHashRepeats;
    if (unstable)
        sample.problems.push_back("hashNetwork not deterministic");

    // Probe: the winner's cut search on a fresh partitioner (cold
    // layer-timing memo) over the SimCache the plan left warm.
    const partition::Partitioner partitioner(estimate, {}, &cache);
    const dnn::Network shard_net =
        sharding::shardNetwork(net, best.tensorShards);
    const Clock::time_point part_start = Clock::now();
    const partition::PartitionPlan cut = partitioner.partition(
        shard_net, best.pipelineStages, best.replicaShare);
    const double partition_s = secondsSince(part_start);
    if (cut.stageCount() != best.pipelineStages)
        sample.problems.push_back("partition probe lost stages");

    const double plan_s = sample.coreSec;
    sample.layers = {
        {"sharding.candidates",
         (double)counters.counterValue("planner.candidates")},
        {"sharding.evaluations", evaluations},
        {"sharding.us_per_evaluation",
         ratio(plan_s * 1e6, evaluations)},
        {"npusim.runs", (double)counters.counterValue("npusim.runs")},
        {"npusim.layer_sims",
         (double)counters.counterValue("npusim.layerSims")},
        {"npusim.sim_cache.hit_ratio", ratio(hits, hits + misses)},
        {"npusim.hash_network_us", hash_us},
        {"partition.partition_s", partition_s},
        {"partition.timing_cache.hit_ratio",
         ratio((double)timing.hits,
               (double)(timing.hits + timing.misses))},
    };
    return sample;
}

// --- serve_fleet / serve_faults -------------------------------------

struct ServeShape
{
    int chips = 1;
    serving::ArrivalKind arrival = serving::ArrivalKind::OpenPoisson;
    std::uint64_t requests = 0;
    bool faults = false;
};

/** Offered load as a share of the model's own fleet capacity. */
constexpr double kLoadShare = 0.7;

Sample
serve(const ServeShape &shape, std::uint64_t seed)
{
    Sample sample;
    const Clock::time_point setup_start = Clock::now();
    const estimator::NpuEstimate estimate = estimateSuperNpu(sample);
    const dnn::Network net = dnn::makeResNet50();
    const int max_batch = npusim::maxBatch(
        estimator::NpuConfig::superNpu(), estimate, net);

    const Clock::time_point model_start = Clock::now();
    const serving::BatchServiceModel service(estimate, net);
    const double capacity_rps =
        service.peakRps(max_batch) * (double)shape.chips;
    sample.setupSpans.emplace_back("serving.service_model_s",
                                   secondsSince(model_start));

    serving::ServingConfig cfg;
    cfg.chips = shape.chips;
    cfg.requests = shape.requests;
    cfg.seed = seed;
    cfg.dispatch = serving::DispatchPolicy::JoinShortestQueue;
    cfg.batching.policy = serving::BatchPolicy::DynamicTimeout;
    cfg.batching.maxBatch = max_batch;
    cfg.arrival.kind = shape.arrival;
    cfg.arrival.ratePerSec = kLoadShare * capacity_rps;

    if (shape.faults) {
        // The same schedule `supernpu faults` builds: flux-trap
        // derate from the remapped cycle counts, horizon twice the
        // nominal injection span.
        cfg.faults = span(sample.setupSpans, "reliability.schedule_s",
                          [&] {
            const reliability::FaultInjector injector(estimate);
            reliability::FaultScheduleConfig trap_cfg;
            reliability::FaultEvent trap;
            trap.kind = reliability::FaultKind::FluxTrap;
            trap.trapTarget = reliability::FluxTrapTarget::PeColumn;
            trap.magnitude = trap_cfg.fluxTrapDerate;
            const double derate = injector.serviceDerate(
                net, max_batch,
                reliability::FaultSchedule::fromEvents(trap_cfg,
                                                       {trap}),
                0);

            reliability::FaultScheduleConfig fault_cfg;
            fault_cfg.seed = seed;
            fault_cfg.chips = shape.chips;
            fault_cfg.pulseDropRatePerSec = 20.0;
            fault_cfg.fluxTrapRatePerSec = 0.05;
            fault_cfg.clockSkewRatePerSec = 5.0;
            fault_cfg.linkGlitchRatePerSec = 10.0;
            fault_cfg.fluxTrapDerate = std::max(1.0, derate);
            fault_cfg.horizonSec =
                std::max(1.0, 2.0 * (double)shape.requests /
                                  cfg.arrival.ratePerSec);
            return reliability::FaultSchedule::generate(fault_cfg);
        });
        cfg.resilience.recovery = serving::RecoveryPolicy::RetryBackoff;
    }
    sample.setupSec = secondsSince(setup_start);

    const Clock::time_point run_start = Clock::now();
    serving::ServingSimulator sim(service, cfg);
    const serving::ServingReport report =
        span(sample.runSpans, "serving.run_s", [&] { return sim.run(); });
    span(sample.runSpans, "obs.ledger_s", [&] {
        obs::RunLedger ledger;
        obs::addServingReport(ledger, report);
        if (shape.faults)
            obs::addFaultSchedule(ledger, cfg.faults);
        obs::addSimCacheStats(ledger,
                              npusim::SimCache::global().stats());
        return ledger.json().size();
    });
    sample.runSec = secondsSince(run_start);
    sample.coreSec = spanValue(sample.runSpans, "serving.run_s");
    sample.items = (double)report.completed;

    requireOk(sample, obs::auditServing(report), "serving audit");
    if (report.completed != shape.requests)
        sample.problems.push_back("completed != requests");
    if (shape.faults &&
        (report.faultsInjected == 0 || report.requestsKilled == 0 ||
         report.retriesTotal == 0))
        sample.problems.push_back(
            "fault schedule too sparse: no fault, kill or retry");
    sample.fingerprint = {
        {"completed", (double)report.completed},
        {"events", (double)report.eventsProcessed},
        {"batches", (double)report.batchesLaunched},
        {"p99_ns", std::round(report.latencyP99 * 1e9)},
        // Split so each half stays exact in a JSON double.
        {"schedule_hash_hi", (double)(cfg.faults.hash() >> 32)},
        {"schedule_hash_lo", (double)(cfg.faults.hash() & 0xffffffffu)},
    };
    if (!perf::enabled())
        return sample;

    const perf::Report counters = perf::report();
    const double events = (double)counters.counterValue("serving.events");
    const double run_s = sample.coreSec;
    sample.layers = {
        {"serving.events", events},
        {"serving.ns_per_event", ratio(run_s * 1e9, events)},
        {"serving.ns_per_request",
         ratio(run_s * 1e9, (double)report.completed)},
        {"serving.batches", (double)report.batchesLaunched},
        {"serving.mean_batch", report.meanBatch},
        {"serving.goodput_ratio",
         ratio((double)(report.completed - report.failedRequests),
               (double)report.generated)},
        {"reliability.faults_injected", (double)report.faultsInjected},
        {"serving.requests_killed", (double)report.requestsKilled},
        {"serving.retries", (double)report.retriesTotal},
        {"npusim.runs", (double)counters.counterValue("npusim.runs")},
    };
    return sample;
}

// --- jsim_fig07 ------------------------------------------------------

/** Fig. 7's JTL and DFF demo circuits (bench/fig07_feedback). */
struct Fig07Circuits
{
    jsim::Circuit jtl;
    jsim::JtlChain jtlChain;
    jsim::Circuit dff;
    jsim::Dff dffCell;
};

Fig07Circuits
buildFig07Circuits()
{
    Fig07Circuits c;
    const jsim::DeviceParams params;
    c.jtlChain = jsim::appendJtl(c.jtl, params, 10, "J");
    jsim::attachPulseInput(c.jtl, params, c.jtlChain.input, {50e-12});

    const jsim::JtlChain data = jsim::appendJtl(c.dff, params, 3, "D");
    jsim::attachPulseInput(c.dff, params, data.input, {50e-12});
    const jsim::JtlChain clock = jsim::appendJtl(c.dff, params, 3, "C");
    jsim::attachPulseInput(c.dff, params, clock.input,
                           {100e-12, 180e-12});
    c.dffCell = jsim::appendDff(c.dff, params, jsim::DffParams{}, "F");
    c.dff.addInductor(data.output, c.dffCell.dataIn,
                      params.jtlInductance);
    c.dff.addInductor(clock.output, c.dffCell.clockIn,
                      params.jtlInductance);
    jsim::appendJtlFrom(c.dff, params, c.dffCell.output, 2, "O");
    return c;
}

/** Integer milli-units: exact in JSON and immune to last-bit noise. */
double
milli(double value)
{
    return std::round(value * 1e3);
}

Sample
jsimFig07(std::uint64_t)
{
    Sample sample;
    const Clock::time_point setup_start = Clock::now();
    // bench/fig07_feedback also builds the design point first; the
    // analog experiments themselves do not read it.
    estimateSuperNpu(sample);
    const Fig07Circuits circuits = buildFig07Circuits();
    sample.setupSec = secondsSince(setup_start);

    const Clock::time_point run_start = Clock::now();
    jsim::TransientConfig jtl_cfg;
    jtl_cfg.duration = 150e-12;
    jsim::TransientConfig dff_cfg;
    dff_cfg.duration = 250e-12;
    std::size_t steps = 0;
    double jtl_delay = 0.0;
    std::size_t jtl_out = 0, stored = 0, released = 0;
    span(sample.runSpans, "jsim.transient_s", [&] {
        const jsim::TransientSimulator jtl(circuits.jtl, jtl_cfg);
        const jsim::TransientResult a = jtl.run();
        jtl_delay = jsim::propagationDelay(
            a, circuits.jtlChain.junctionIndices.front(),
            circuits.jtlChain.junctionIndices.back());
        jtl_out = a.switchCount(circuits.jtlChain.junctionIndices.back());
        const jsim::TransientSimulator dff(circuits.dff, dff_cfg);
        const jsim::TransientResult b = dff.run();
        stored = b.switchCount(circuits.dffCell.storeJunction);
        released = b.switchCount(circuits.dffCell.releaseJunction);
        steps = a.steps + b.steps;
    });
    const auto [concurrent, counter] =
        span(sample.runSpans, "jsim.shift_clock_s", [] {
            return std::pair{
                jsim::maxShiftClockGhz(jsim::ClockRouting::Concurrent),
                jsim::maxShiftClockGhz(jsim::ClockRouting::CounterFlow)};
        });
    const auto [bias, ic] = span(sample.runSpans, "jsim.margin_s", [] {
        return std::pair{
            jsim::dffParameterMargin(jsim::DffParameter::LoopBias),
            jsim::dffParameterMargin(jsim::DffParameter::ReleaseIc)};
    });
    span(sample.runSpans, "obs.ledger_s", [&] {
        obs::RunLedger ledger;
        ledger.setInt("jsim", "jtl_output_switches", jtl_out);
        ledger.setReal("jsim", "jtl_delay_s", jtl_delay);
        ledger.setInt("jsim", "dff_stored", stored);
        ledger.setInt("jsim", "dff_released", released);
        ledger.setReal("jsim", "sr_concurrent_ghz", concurrent);
        ledger.setReal("jsim", "sr_counter_flow_ghz", counter);
        ledger.setReal("jsim", "bias_margin_low_pct", bias.lowPercent);
        ledger.setReal("jsim", "bias_margin_high_pct", bias.highPercent);
        ledger.setReal("jsim", "ic_margin_low_pct", ic.lowPercent);
        ledger.setReal("jsim", "ic_margin_high_pct", ic.highPercent);
        return ledger.json().size();
    });
    sample.runSec = secondsSince(run_start);
    sample.coreSec = sample.runSec -
                     spanValue(sample.runSpans, "obs.ledger_s");
    sample.items = 6.0; // two transients, two clock sweeps, two margins

    if (!(counter < concurrent))
        sample.problems.push_back(
            "counter-flow routing not slower than concurrent");
    sample.fingerprint = {
        {"jtl_output_switches", (double)jtl_out},
        {"dff_stored", (double)stored},
        {"dff_released", (double)released},
        {"sr_concurrent_mhz", milli(concurrent)},
        {"sr_counter_flow_mhz", milli(counter)},
        {"bias_margin_low_mpct", milli(bias.lowPercent)},
        {"bias_margin_high_mpct", milli(bias.highPercent)},
        {"ic_margin_low_mpct", milli(ic.lowPercent)},
        {"ic_margin_high_mpct", milli(ic.highPercent)},
    };
    if (perf::enabled()) {
        sample.layers = {
            {"jsim.steps", (double)steps},
            {"jsim.ns_per_step",
             ratio(spanValue(sample.runSpans, "jsim.transient_s") * 1e9,
                   (double)steps)},
        };
    }
    return sample;
}

// --- main loop ---------------------------------------------------------

using Workflow = std::function<Sample(std::uint64_t)>;

Workflow
workflowFor(const std::string &name)
{
    if (name == "plan_fleet")
        return planFleet;
    if (name == "serve_fleet")
        return [](std::uint64_t seed) {
            return serve({1024, serving::ArrivalKind::OpenPoisson,
                          100000, false},
                         seed);
        };
    if (name == "serve_faults")
        return [](std::uint64_t seed) {
            return serve({4, serving::ArrivalKind::Bursty, 1000000,
                          true},
                         seed);
        };
    if (name == "jsim_fig07")
        return jsimFig07;
    return {};
}

/** One `{"name": value, ...}` object of named values. */
void
writeNamed(obs::JsonWriter &json, const char *key, const Named &values)
{
    json.key(key).beginObject();
    for (const auto &[name, value] : values)
        json.key(name).value(value);
    json.endObject();
}

std::string
cpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/**
 * This process image's resident high-water mark (VmHWM). Unlike
 * getrusage's ru_maxrss it restarts at exec, so the launching
 * process's footprint does not leak into the figure.
 */
double
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr);
    }
    return 0.0;
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: workflow_bench --workload <plan_fleet|"
                 "serve_fleet|serve_faults|jsim_fig07> --seed N"
                 " --seconds S --trace 0|1\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = -1.0;
    int trace = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            trace = std::atoi(value);
        else
            return usage();
    }
    const Workflow workflow = workflowFor(workload);
    if (argc % 2 == 0 || !workflow || seconds < 0.0 ||
        (trace != 0 && trace != 1))
        return usage();

    // Closed loop: one client, next workflow after the previous one.
    // Stop before an iteration would run past the budget, but always
    // take one untraced sample (and, with tracing, one traced one).
    std::vector<Sample> samples;
    double peak_rss_mb = 0.0;
    const Clock::time_point start = Clock::now();
    double last_sec = 0.0;
    for (int i = 0;; ++i) {
        const bool traced = trace == 1 && i % 2 == 1;
        const bool required = i == 0 || (trace == 1 && i == 1);
        if (!required && secondsSince(start) + last_sec > seconds)
            break;
        npusim::SimCache::global().clear();
        perf::reset();
        perf::setEnabled(traced);
        const Clock::time_point iter_start = Clock::now();
        Sample sample = workflow(seed);
        last_sec = secondsSince(iter_start);
        perf::setEnabled(false);
        sample.traced = traced;

        double span_sum = 0.0;
        for (const auto &[name, sec] : sample.runSpans)
            span_sum += sec;
        if (span_sum > sample.runSec)
            sample.problems.push_back("run spans sum past run_s");
        sample.layers.emplace_back("unattributed_s",
                                   sample.runSec - span_sum);
        samples.push_back(std::move(sample));
        // The first, cold iteration is what one CLI invocation pays;
        // later ones would add heap the allocator kept from earlier
        // iterations.
        if (i == 0)
            peak_rss_mb = peakRssKb() / 1024.0;
    }

    obs::JsonWriter json;
    json.beginObject();
    json.key("workload").value(workload);
    json.key("seed").value(seed);
    json.key("machine").beginObject();
    json.key("cpu").value(cpuModel());
    json.key("cores").value(
        (std::uint64_t)std::thread::hardware_concurrency());
    json.key("compiler").value(compilerName());
    json.key("build_type").value(PERFBENCH_BUILD_TYPE);
    json.endObject();
    json.key("peak_rss_mb").value(peak_rss_mb);
    json.key("samples").beginArray();
    for (const Sample &s : samples) {
        json.beginObject();
        json.key("traced").value(s.traced);
        json.key("setup_s").value(s.setupSec);
        json.key("run_s").value(s.runSec);
        json.key("core_s").value(s.coreSec);
        json.key("items").value(s.items);
        writeNamed(json, "setup_spans", s.setupSpans);
        writeNamed(json, "run_spans", s.runSpans);
        writeNamed(json, "layers", s.layers);
        writeNamed(json, "fingerprint", s.fingerprint);
        json.key("problems").beginArray();
        for (const std::string &problem : s.problems)
            json.value(problem);
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    std::printf("%s\n", json.str().c_str());
    return 0;
}
