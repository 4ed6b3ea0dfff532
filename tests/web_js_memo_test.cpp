// Differential oracle for the script-outcome memo behind js::Interpreter::run.
//
// Every case runs cold first, right after reset_script_memo(), so each of
// its scripts is evaluated; then it runs warm: the second run is the
// chain's second sighting, which stores its outcomes, and the third replays
// them.  Every observable must be identical between the cold and the warm
// runs: per script the op count, completion, error text and ordered
// host-call log; at the end of the chain every global; for whole page loads
// run_single's full result digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/scenario.hpp"
#include "support/fuzz_inputs.hpp"
#include "support/js_chain.hpp"
#include "support/result_digest.hpp"
#include "util/rng.hpp"
#include "web/js.hpp"

namespace eab::web::js {
namespace {

using browser::PipelineMode;
using test::ChainRecord;
using test::page_scripts;
using test::run_chain;
using test::table3_pages;

constexpr std::uint64_t kDefaultBudget = 50'000'000;
constexpr std::uint64_t kSeeds[] = {1, 2, 3};

/// Runs `run` cold, then twice warm, and checks the three agree and that
/// the third run replayed stored outcomes.
template <typename Record>
void expect_memo_transparent(const std::function<Record()>& run,
                             const std::string& label) {
  reset_script_memo();
  const Record cold = run();
  EXPECT_EQ(script_memo_stats().hits, 0u) << label;
  const Record admitting = run();
  const std::uint64_t hits_before = script_memo_stats().hits;
  const Record replayed = run();
  EXPECT_GT(script_memo_stats().hits, hits_before) << label;
  EXPECT_TRUE(cold == admitting) << label;
  EXPECT_TRUE(cold == replayed) << label;
}

std::uint64_t load_digest(const corpus::PageSpec& spec, PipelineMode mode,
                          std::uint64_t seed, const net::FaultPlan& faults) {
  return test::result_digest(core::ScenarioBuilder(mode)
                                 .seed(seed)
                                 .fault_plan(faults)
                                 .build()
                                 .run_single(spec));
}

TEST(ScriptMemo, CorpusPageLoadsAreIdenticalColdAndWarm) {
  // Every Table-3 page x 3 seeds x both pipelines, through the real
  // pipeline: run_single's every output field, digested.
  for (const corpus::PageSpec& spec : table3_pages()) {
    for (const std::uint64_t seed : kSeeds) {
      for (const PipelineMode mode :
           {PipelineMode::kOriginal, PipelineMode::kEnergyAware}) {
        expect_memo_transparent<std::uint64_t>(
            [&] { return load_digest(spec, mode, seed, net::FaultPlan{}); },
            spec.site + " seed " + std::to_string(seed) + " mode " +
                std::to_string(static_cast<int>(mode)));
      }
    }
  }
}

TEST(ScriptMemo, TruncatedScriptsFromFaultedLoadsAreIdentical) {
  // The fault layer cuts bodies at seeded wire offsets, so half the
  // scripts these loads run are truncated mid-token.
  net::FaultPlan faults;
  faults.truncate_rate = 0.5;
  const std::vector<corpus::PageSpec> pages = table3_pages();
  for (const std::size_t page : {std::size_t{0}, pages.size() - 1}) {
    for (const std::uint64_t seed : kSeeds) {
      faults.seed = seed;
      for (const PipelineMode mode :
           {PipelineMode::kOriginal, PipelineMode::kEnergyAware}) {
        expect_memo_transparent<std::uint64_t>(
            [&] { return load_digest(pages[page], mode, seed, faults); },
            pages[page].site + " seed " + std::to_string(seed));
      }
    }
  }
}

TEST(ScriptMemo, CorpusChainsKeepOpsHostCallsAndGlobals) {
  for (const corpus::PageSpec& spec : table3_pages()) {
    for (const std::uint64_t seed : kSeeds) {
      const std::vector<std::string> chain = page_scripts(spec, seed);
      ASSERT_FALSE(chain.empty()) << spec.site;
      expect_memo_transparent<ChainRecord>(
          [&] { return run_chain(chain, kDefaultBudget, seed); },
          spec.site + " seed " + std::to_string(seed));
    }
  }
}

TEST(ScriptMemo, TruncatedCorpusScriptsAreIdentical) {
  // Each script cut at a seeded offset, as a truncated fetch delivers it:
  // lex and parse errors, and partial runs that leave globals half set.
  const std::vector<corpus::PageSpec> pages = table3_pages();
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    std::vector<std::string> chain = page_scripts(pages[seed], seed);
    for (std::string& source : chain) {
      source.resize(rng.uniform_index(source.size() + 1));
    }
    expect_memo_transparent<ChainRecord>(
        [&] { return run_chain(chain, kDefaultBudget, seed); },
        "truncated seed " + std::to_string(seed));
  }
}

TEST(ScriptMemo, JsFuzzSoupsAreIdentical) {
  // The JsFuzz rounds, as one chain per seed under its tight budget.
  for (const std::uint64_t seed : {100, 200, 300}) {
    const std::vector<std::string> chain = test::js_fuzz_inputs(seed);
    expect_memo_transparent<ChainRecord>(
        [&] { return run_chain(chain, 100'000, seed); },
        "fuzz seed " + std::to_string(seed));
  }
}

TEST(ScriptMemo, BudgetCutOffIsReplayedExactly) {
  // Busy corpus loops run out of a small budget mid-loop; the next script
  // reads the state the cut-off left behind.
  std::vector<std::string> chain = page_scripts(table3_pages().back(), 1);
  chain.push_back("var after = i1 + ':' + acc1; loadImage('cut' + after);");
  const ChainRecord cold = run_chain(chain, 5'000, 1);
  ASSERT_NE(cold.scripts.front().error.find("budget"), std::string::npos)
      << cold.scripts.front().error;
  EXPECT_EQ(cold.scripts.front().ops, 5'001u);
  expect_memo_transparent<ChainRecord>(
      [&] { return run_chain(chain, 5'000, 1); }, "budget");
}

TEST(ScriptMemo, BudgetIsPartOfTheKey) {
  // The same chain under a different budget must not replay the other
  // budget's cut-off.
  const std::vector<std::string> chain = page_scripts(table3_pages()[0], 1);
  reset_script_memo();
  const ChainRecord small = run_chain(chain, 5'000, 1);
  const ChainRecord full = run_chain(chain, kDefaultBudget, 1);
  for (int pass = 0; pass < 3; ++pass) {
    EXPECT_TRUE(run_chain(chain, 5'000, 1) == small);
    EXPECT_TRUE(run_chain(chain, kDefaultBudget, 1) == full);
  }
  EXPECT_GT(script_memo_stats().hits, 0u);
  EXPECT_FALSE(small == full);
}

TEST(ScriptMemo, RandomDrawingScriptsAreNeverAdmitted) {
  // A pure prefix, a script drawing Math.random(), and a script reading
  // the drawn value: only the prefix may ever be stored; what follows a
  // draw depends on the host's RNG, not on the sources.
  const std::vector<std::string> chain = {
      "var base = 'img/'; var n = 0; while (n < 50) { n = n + 1; }",
      "var r = Math.random();",
      "var pick = Math.floor(r * 1000); loadImage(base + pick + '.jpg');"};
  reset_script_memo();
  std::vector<ChainRecord> cold;
  for (const std::uint64_t seed : kSeeds) cold.push_back(run_chain(chain, kDefaultBudget, seed));
  EXPECT_FALSE(cold[0] == cold[1]);
  for (int pass = 0; pass < 4; ++pass) {
    for (std::size_t i = 0; i < cold.size(); ++i) {
      EXPECT_TRUE(run_chain(chain, kDefaultBudget, kSeeds[i]) == cold[i]);
    }
  }
  const ScriptMemoStats stats = script_memo_stats();
  EXPECT_EQ(stats.admitted, 1u);  // the prefix, on its second sighting
  EXPECT_GT(stats.hits, 0u);      // ... which later passes replay
}

// --- exact keys under bucket collisions ---------------------------------------
//
// The chain hash only picks a bucket; a hit must also match the parent
// outcome's id and the full source.  Colliding hashes never occur by
// chance in a test, so these tests build them: the helpers below mirror
// the memo's chain hash (extend_chain in js_interpreter.cpp), whose
// per-word step is invertible, and solve for a source's last eight bytes.

constexpr std::uint64_t kChainMul = 0x9E3779B97F4A7C15ULL;

std::uint64_t chain_fold(std::uint64_t hash, std::uint64_t word) {
  hash = (hash ^ word) * kChainMul;
  return hash ^ (hash >> 32);
}

/// The word that takes the chain from `hash` to `target` in one fold.
std::uint64_t chain_unfold(std::uint64_t hash, std::uint64_t target) {
  std::uint64_t inverse = kChainMul;  // Newton's iteration modulo 2^64
  for (int i = 0; i < 5; ++i) inverse *= 2 - kChainMul * inverse;
  return ((target ^ (target >> 32)) * inverse) ^ hash;
}

/// Chain hash over whole words of `bytes` (its size a multiple of 8).
std::uint64_t chain_words(std::uint64_t hash, std::string_view bytes) {
  hash = chain_fold(hash, bytes.size());
  for (std::size_t at = 0; at < bytes.size(); at += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes.data() + at, 8);
    hash = chain_fold(hash, word);
  }
  return hash;
}

/// A 32-byte script `var v = <value>;` whose chain hash, as the first
/// script under `budget`, is `target`; the solved bytes sit in a comment.
std::string colliding_script(int value, std::uint64_t budget,
                             std::uint64_t target) {
  for (char pad = 'a';; ++pad) {
    std::string source = "var v = " + std::to_string(value) + "; //";
    source.resize(24, pad);
    std::uint64_t hash = chain_fold(chain_fold(0, budget), 32);
    for (std::size_t at = 0; at < 24; at += 8) {
      std::uint64_t word;
      std::memcpy(&word, source.data() + at, 8);
      hash = chain_fold(hash, word);
    }
    const std::uint64_t word = chain_unfold(hash, target);
    std::string tail(8, '\0');
    std::memcpy(tail.data(), &word, 8);
    if (tail.find('\n') == std::string::npos) return source + tail;
  }
}

TEST(ScriptMemo, CollidingChainHashesNeverAlias) {
  std::string first = "var v = 1; //";
  first.resize(32, 'a');
  const std::uint64_t target =
      chain_words(chain_fold(0, kDefaultBudget), first);
  const std::string second = colliding_script(2, kDefaultBudget, target);
  ASSERT_NE(first, second);

  // Precondition: the two sources share a chain hash, so the second one's
  // first run is already a second sighting and is stored.
  reset_script_memo();
  run_chain({first}, kDefaultBudget, 1);
  run_chain({second}, kDefaultBudget, 1);
  ASSERT_EQ(script_memo_stats().admitted, 1u)
      << "the helpers no longer mirror the memo's chain hash";

  // Same bucket, different source; then the same source under a parent of
  // the same bucket but a different id.  The child's host calls tell the
  // parents apart.
  const std::string child = "loadImage('w' + v);";
  const std::vector<std::string> one = {first, child};
  const std::vector<std::string> two = {second, child};
  reset_script_memo();
  const ChainRecord cold_one = run_chain(one, kDefaultBudget, 1);
  reset_script_memo();
  const ChainRecord cold_two = run_chain(two, kDefaultBudget, 1);
  ASSERT_FALSE(cold_one == cold_two);
  reset_script_memo();
  for (int pass = 0; pass < 3; ++pass) {
    EXPECT_TRUE(run_chain(one, kDefaultBudget, 1) == cold_one) << pass;
    EXPECT_TRUE(run_chain(two, kDefaultBudget, 1) == cold_two) << pass;
  }
  EXPECT_GT(script_memo_stats().hits, 0u);
}

TEST(ScriptMemo, SharedAcrossCasesUnderEviction) {
  // All corpus chains through one memo, no resets: the working set
  // exceeds the byte cap, so outcomes (and parents of stored children) are
  // evicted and re-admitted under fresh ids while the results hold.
  std::vector<std::vector<std::string>> chains;
  std::vector<ChainRecord> cold;
  for (const corpus::PageSpec& spec : table3_pages()) {
    for (const std::uint64_t seed : kSeeds) {
      chains.push_back(page_scripts(spec, seed));
      reset_script_memo();
      cold.push_back(run_chain(chains.back(), kDefaultBudget, seed));
    }
  }
  reset_script_memo();
  for (std::size_t i = 0; i < chains.size(); ++i) {
    for (int sighting = 0; sighting < 3; ++sighting) {
      EXPECT_TRUE(run_chain(chains[i], kDefaultBudget, kSeeds[i % 3]) == cold[i])
          << i;
    }
  }
  for (std::size_t i = 0; i < chains.size(); ++i) {
    EXPECT_TRUE(run_chain(chains[i], kDefaultBudget, kSeeds[i % 3]) == cold[i])
        << i;
  }
  const ScriptMemoStats stats = script_memo_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evicted, 0u);
  EXPECT_LE(stats.bytes, std::uint64_t{1} << 20);
}

TEST(ScriptMemo, ThreadedSameChainIsIdentical) {
  // Four BatchRunner workers run the same chain and the same page load
  // concurrently: lookups, admissions and replays race on one memo.
  const corpus::PageSpec spec = table3_pages().back();
  const std::vector<std::string> chain = page_scripts(spec, 1);
  reset_script_memo();
  const ChainRecord cold = run_chain(chain, kDefaultBudget, 1);
  const std::uint64_t cold_digest =
      load_digest(spec, PipelineMode::kEnergyAware, 1, net::FaultPlan{});

  core::BatchRunner runner(4);
  constexpr std::size_t kRuns = 16;
  std::vector<ChainRecord> chains(kRuns);
  std::vector<std::uint64_t> digests(kRuns);
  runner.run_indexed(kRuns, [&](std::size_t i) {
    chains[i] = run_chain(chain, kDefaultBudget, 1);
    digests[i] =
        load_digest(spec, PipelineMode::kEnergyAware, 1, net::FaultPlan{});
  });
  for (std::size_t i = 0; i < kRuns; ++i) {
    EXPECT_TRUE(chains[i] == cold) << i;
    EXPECT_EQ(digests[i], cold_digest) << i;
  }
  EXPECT_GT(script_memo_stats().hits, 0u);
}

}  // namespace
}  // namespace eab::web::js
