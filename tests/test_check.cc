/**
 * @file
 * Tests for the check subsystem: generator determinism and validity,
 * honest and tampered oracle outcomes across the catalog, shrinker
 * convergence and determinism, repro serialization round-trips, and
 * a full replay of the committed corpus in tests/repros/.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "check/case.hh"
#include "check/generator.hh"
#include "check/oracles.hh"
#include "check/repro.hh"
#include "check/runner.hh"
#include "check/shrinker.hh"
#include "sfq/cells.hh"

namespace supernpu {
namespace check {
namespace {

const sfq::CellLibrary &
library()
{
    static sfq::DeviceConfig dev;
    static sfq::CellLibrary lib{dev};
    return lib;
}

/** The PR 7 scenario: a data-parallel plan over a splittable batch. */
CheckCase
dataParallelCase()
{
    CheckCase c;
    c.seed = 7;
    c.index = 0;
    c.inChannels = 3;
    c.inHw = 16;
    c.layers = {LayerSpec{dnn::LayerKind::Conv, 32, 3, 1},
                LayerSpec{dnn::LayerKind::Conv, 48, 3, 1}};
    c.batch = 4;
    c.dataParallel = 2;
    return c;
}

// --- generator -------------------------------------------------------

TEST(CheckGenerator, CasesDependOnlyOnSeedAndIndex)
{
    for (std::uint64_t i = 0; i < 8; ++i) {
        const CheckCase a = generate(9, i);
        const CheckCase b = generate(9, i);
        EXPECT_EQ(a.describe(), b.describe()) << "index " << i;
        EXPECT_EQ(a.servingSeed, b.servingSeed);
        EXPECT_EQ(a.faultSeed, b.faultSeed);
    }
}

TEST(CheckGenerator, SeedsAndIndicesDiversifyCases)
{
    std::vector<std::string> descriptions;
    for (std::uint64_t i = 0; i < 16; ++i)
        descriptions.push_back(generate(9, i).describe());
    std::sort(descriptions.begin(), descriptions.end());
    const auto unique_end =
        std::unique(descriptions.begin(), descriptions.end());
    EXPECT_GT(unique_end - descriptions.begin(), 8);
    EXPECT_NE(generate(9, 0).describe(), generate(10, 0).describe());
}

TEST(CheckGenerator, EveryCaseIsValidByConstruction)
{
    // network() and config() run the subsystem check() validators,
    // which panic/fatal on an invalid scenario — surviving the loop
    // is the assertion.
    for (std::uint64_t i = 0; i < 32; ++i) {
        const CheckCase c = generate(9, i);
        const dnn::Network net = c.network();
        EXPECT_FALSE(net.layers.empty());
        c.config();
        EXPECT_GE(c.batch, 1);
        EXPECT_GE(c.pipelineStages, 1);
        EXPECT_GE(c.dataParallel, 1);
        EXPECT_GE(c.tensorShards, 1);
    }
}

// --- oracle catalog --------------------------------------------------

TEST(CheckOracles, CatalogNamesAreStable)
{
    const std::vector<std::string> &names = oracleNames();
    EXPECT_EQ(names.size(), 13u);
    for (const std::string &name : names)
        EXPECT_TRUE(isOracle(name)) << name;
    EXPECT_FALSE(isOracle("bogus-oracle"));
    EXPECT_FALSE(isOracle(""));
}

TEST(CheckOracles, HonestRunsPassOnEveryOracle)
{
    for (std::uint64_t i = 0; i < 4; ++i) {
        const CheckCase c = generate(9, i);
        for (const std::string &name : oracleNames()) {
            const OracleOutcome outcome =
                runOracle(name, c, library(), Cook::None);
            EXPECT_TRUE(!outcome.applicable || outcome.passed)
                << name << " on " << c.describe() << ": "
                << outcome.detail;
        }
    }
}

TEST(CheckOracles, TamperedRunsFailOnEveryOracle)
{
    // Every oracle must be sabotage-able (have teeth) on at least
    // one of the first cases, and a sabotaged observation must
    // never pass.
    std::vector<std::string> toothless = oracleNames();
    for (std::uint64_t i = 0; i < 12 && !toothless.empty(); ++i) {
        const CheckCase c = generate(9, i);
        for (auto it = toothless.begin(); it != toothless.end();) {
            const OracleOutcome outcome =
                runOracle(*it, c, library(), Cook::Tamper);
            EXPECT_TRUE(!outcome.applicable || !outcome.passed)
                << *it << " passed while tampered on "
                << c.describe();
            it = outcome.applicable ? toothless.erase(it) : it + 1;
        }
    }
    EXPECT_TRUE(toothless.empty())
        << "no applicable tamper case found for '" << toothless[0]
        << "'";
}

// --- shrinker --------------------------------------------------------

TEST(CheckShrinker, ShrinksToADeterministicStillFailingFixpoint)
{
    const CheckCase failing = dataParallelCase();
    const std::string oracle = "shard-solo-baseline";
    const OracleOutcome before =
        runOracle(oracle, failing, library(), Cook::Tamper);
    ASSERT_TRUE(before.applicable);
    ASSERT_FALSE(before.passed);

    const ShrinkResult first =
        shrinkCase(failing, oracle, library(), Cook::Tamper);
    EXPECT_GT(first.attempts, 0);
    const OracleOutcome after =
        runOracle(oracle, first.shrunk, library(), Cook::Tamper);
    EXPECT_TRUE(after.applicable);
    EXPECT_FALSE(after.passed);
    EXPECT_LE(first.shrunk.layers.size(), failing.layers.size());
    EXPECT_LE(first.shrunk.batch, failing.batch);

    // Shrinking a fixpoint accepts nothing and changes nothing.
    const ShrinkResult second =
        shrinkCase(first.shrunk, oracle, library(), Cook::Tamper);
    EXPECT_EQ(second.accepted, 0);
    EXPECT_EQ(second.shrunk.describe(), first.shrunk.describe());
}

TEST(CheckShrinker, PassingInputIsReturnedUnchanged)
{
    const CheckCase passing = dataParallelCase();
    const ShrinkResult result = shrinkCase(
        passing, "shard-solo-baseline", library(), Cook::None);
    EXPECT_EQ(result.accepted, 0);
    EXPECT_EQ(result.shrunk.describe(), passing.describe());
}

// --- repro serialization ---------------------------------------------

TEST(CheckRepro, RoundTripsBytesAndFullWidthSeeds)
{
    Repro repro;
    repro.oracle = "serving-determinism";
    repro.cook = Cook::Tamper;
    repro.checkCase = generate(0xDEADBEEFCAFEBABEull, 3);
    // Full-width seeds would lose bits through a double; the decimal
    // string encoding must hold all 64.
    repro.checkCase.servingSeed = 0xFFFFFFFFFFFFFFFFull;

    const std::string text = renderRepro(repro);
    std::string error;
    const auto parsed = parseRepro(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->oracle, repro.oracle);
    EXPECT_EQ(parsed->cook, repro.cook);
    EXPECT_EQ(parsed->checkCase.describe(),
              repro.checkCase.describe());
    EXPECT_EQ(parsed->checkCase.servingSeed, 0xFFFFFFFFFFFFFFFFull);
    EXPECT_EQ(renderRepro(*parsed), text);
}

TEST(CheckRepro, RejectsGarbageWithAReason)
{
    std::string error;
    EXPECT_FALSE(parseRepro("not json", &error).has_value());
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseRepro("{}", &error).has_value());
    EXPECT_FALSE(
        parseRepro("{\"schema\": \"supernpu-check-v1\", "
                   "\"oracle\": \"bogus\", \"cook\": \"none\"}",
                   &error)
            .has_value());
}

// --- corpus replay ---------------------------------------------------

TEST(CheckCorpus, EveryCommittedReproReplaysAsExpected)
{
    // SUPERNPU_REPRO_DIR points at the committed tests/repros/: one
    // shrunk tamper repro per oracle (teeth) plus cook-none pins for
    // the PR 4 and PR 7 fixes and the fuzz-discovered superlinear-TP
    // audit fix. Exit 0 means the oracle behaved as its cook
    // expects; a regression flips the replay to exit 1.
    std::vector<std::string> files;
    for (const auto &entry : std::filesystem::directory_iterator(
             SUPERNPU_REPRO_DIR)) {
        if (entry.path().extension() == ".json")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    ASSERT_GE(files.size(), oracleNames().size());
    for (const std::string &path : files) {
        RunnerOptions options;
        options.replayPath = path;
        EXPECT_EQ(runCheck(options, library()), 0) << path;
    }
}

TEST(CheckRunner, GenerateModeIsCleanOnAFreshSeed)
{
    RunnerOptions options;
    options.seed = 31;
    options.cases = 3;
    options.shrinkFailures = false;
    EXPECT_EQ(runCheck(options, library()), 0);
}

TEST(CheckRunner, ParallelSweepIsByteIdenticalToSerial)
{
    // One generate-mode sweep at a given job count, rendered to
    // bytes: the tallies, the case-order outcome fingerprint, and
    // every failure-sink invocation in the order it fired. All of it
    // must be independent of --jobs.
    const auto sweep = [&](int jobs) {
        RunnerOptions options;
        options.seed = 9;
        options.cases = 10;
        options.shrinkFailures = false;
        options.jobs = jobs;
        std::ostringstream failures;
        const CheckSummary summary = runCases(
            options, library(),
            [&](const std::string &oracle, const CheckCase &c,
                const OracleOutcome &outcome) {
                failures << oracle << ' ' << c.describe() << ' '
                         << outcome.detail << '\n';
            });
        std::ostringstream out;
        out << summary.ran << ' ' << summary.skipped << ' '
            << summary.failures << ' ' << summary.outcomeHash << '\n'
            << failures.str();
        return out.str();
    };

    const std::string serial = sweep(1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(sweep(2), serial);
    EXPECT_EQ(sweep(8), serial);
}

TEST(CheckRunner, RunCasesRejectsAnUnknownOracleFilter)
{
    RunnerOptions options;
    options.oracle = "no-such-oracle";
    EXPECT_DEATH((void)runCases(options, library()),
                 "unknown oracle");
}

} // namespace
} // namespace check
} // namespace supernpu
