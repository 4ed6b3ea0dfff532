// Differential oracle for the script-outcome memo behind js::Interpreter::run.
//
// Every case runs cold first, right after reset_script_memo(), so each of
// its scripts is evaluated and its pure outcomes are stored; then it runs
// warm, and the second run replays them.  Every observable must be
// identical between the cold and the warm run: per script the op count,
// completion, error text and ordered host-call log; at the end of the chain
// every global; for whole page loads run_single's full result digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
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

/// Runs `run` cold, then warm, and checks the two agree and that the
/// second run replayed stored outcomes.
template <typename Record>
void expect_memo_transparent(const std::function<Record()>& run,
                             const std::string& label) {
  reset_script_memo();
  const Record cold = run();
  EXPECT_EQ(script_memo_stats().hits, 0u) << label;
  const Record replayed = run();
  EXPECT_GT(script_memo_stats().hits, 0u) << label;
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
  EXPECT_EQ(stats.admitted, 1u);  // the prefix, on its first sighting
  EXPECT_GT(stats.hits, 0u);      // ... which later passes replay
}

TEST(ScriptMemo, PipelinePairReplaysItsSecondLoad) {
  // perfbench's page_loads and the figures load each page under both
  // pipelines at one seed: the same scripts in the same order, so the
  // energy-aware load, right after the original one, evaluates nothing.
  for (const corpus::PageSpec& spec : table3_pages()) {
    const std::uint64_t seed = 1;
    reset_script_memo();
    const std::uint64_t cold_original =
        load_digest(spec, PipelineMode::kOriginal, seed, net::FaultPlan{});
    reset_script_memo();
    const std::uint64_t cold_energy_aware =
        load_digest(spec, PipelineMode::kEnergyAware, seed, net::FaultPlan{});

    reset_script_memo();
    EXPECT_EQ(load_digest(spec, PipelineMode::kOriginal, seed, net::FaultPlan{}),
              cold_original)
        << spec.site;
    const ScriptMemoStats first = script_memo_stats();
    EXPECT_EQ(first.hits, 0u) << spec.site;
    EXPECT_EQ(load_digest(spec, PipelineMode::kEnergyAware, seed,
                          net::FaultPlan{}),
              cold_energy_aware)
        << spec.site;
    const ScriptMemoStats second = script_memo_stats();
    EXPECT_EQ(second.misses, first.misses) << spec.site;
    EXPECT_EQ(second.hits, first.misses) << spec.site;
    EXPECT_GT(second.hits, 0u) << spec.site;
  }
}

TEST(ScriptMemo, LayoutsOfOneScriptShareAnOutcome) {
  // Each run of whitespace and comments outside strings is one space in
  // the key, so a chain laid out with other runs replays the first one's
  // outcomes.
  const std::vector<std::string> one = {
      "var n = 1;", "var x = n + 1;  // one", "loadImage('i' + x);"};
  const std::vector<std::string> two = {
      "var  n\t=\n1;", "var x = n +\n\t1; /* two */", "loadImage('i'  +  x);"};
  reset_script_memo();
  const ChainRecord cold = run_chain(one, kDefaultBudget, 1);
  const ChainRecord replayed = run_chain(two, kDefaultBudget, 1);
  EXPECT_TRUE(replayed == cold);
  EXPECT_EQ(script_memo_stats().hits, two.size());
}

TEST(ScriptMemo, SyntaxErrorsKeepTheirOwnOffsets) {
  // Two layouts of one broken script share a layout-free text, but the
  // lexer's and the parser's errors name a raw offset: each layout must
  // report its own, cold and warm, and the script after it still runs.
  const std::vector<std::pair<std::string, std::string>> layouts = {
      {"var x = ;", "var   x =\n ;"},           // parse error
      {"var x = 1 # 2;", "var x  =  1 # 2;"},   // unexpected character
      {"var x = 'open", "var  x = 'open"},       // unterminated string
      {"var x = 1; /* open", "var x = 1;  /* open"}};
  for (const auto& [one, two] : layouts) {
    const std::vector<std::string> chain_one = {"var n = 1;", one,
                                                "loadImage('i' + n);"};
    const std::vector<std::string> chain_two = {"var n = 1;", two,
                                                "loadImage('i' + n);"};
    reset_script_memo();
    const ChainRecord cold_one = run_chain(chain_one, kDefaultBudget, 1);
    reset_script_memo();
    const ChainRecord cold_two = run_chain(chain_two, kDefaultBudget, 1);
    ASSERT_NE(cold_one.scripts[1].error.find("offset"), std::string::npos)
        << one;
    ASSERT_NE(cold_one.scripts[1].error, cold_two.scripts[1].error) << one;
    reset_script_memo();
    for (int pass = 0; pass < 3; ++pass) {
      EXPECT_TRUE(run_chain(chain_one, kDefaultBudget, 1) == cold_one) << one;
      EXPECT_TRUE(run_chain(chain_two, kDefaultBudget, 1) == cold_two) << two;
    }
    EXPECT_GT(script_memo_stats().hits, 0u) << one;
  }
}

// --- exact keys under bucket collisions ---------------------------------------
//
// The chain hash only picks a bucket; a hit must also match the parent
// outcome's id and the full key.  Colliding hashes never occur by chance in
// a test, so this test builds them: the helpers below mirror the memo's
// chain hash over layout-free keys (extend_chain in js_interpreter.cpp),
// whose per-word step is invertible, and solve for eight bytes of a string
// literal, which the key keeps as they are.

constexpr std::uint64_t kChainMul = 0x9E3779B97F4A7C15ULL;

std::uint64_t chain_fold(std::uint64_t hash, std::uint64_t word) {
  hash = (hash ^ word) * kChainMul;
  return hash ^ (hash >> 32);
}

/// The word that takes the chain from `hash` to `target` in one fold.  A
/// fold mixes hash and word alike, so this is also the hash that folding
/// `hash` as a word takes to `target`.
std::uint64_t chain_unfold(std::uint64_t hash, std::uint64_t target) {
  std::uint64_t inverse = kChainMul;  // Newton's iteration modulo 2^64
  for (int i = 0; i < 5; ++i) inverse *= 2 - kChainMul * inverse;
  return ((target ^ (target >> 32)) * inverse) ^ hash;
}

std::uint64_t word_at(std::string_view bytes, std::size_t at) {
  std::uint64_t word;
  std::memcpy(&word, bytes.data() + at, 8);
  return word;
}

/// Chain hash of a first script whose key is `key` (its size a multiple of
/// 8).
std::uint64_t first_chain_hash(std::uint64_t budget, std::string_view key) {
  std::uint64_t hash = chain_fold(chain_fold(0, budget), key.size());
  for (std::size_t at = 0; at < key.size(); at += 8) {
    hash = chain_fold(hash, word_at(key, at));
  }
  return hash;
}

/// A 40-byte script `var v = <value>; var s = '...';v=v+0;`, its own
/// layout-free key, whose chain hash as the first script under `budget` is
/// `target`; the solved bytes are s's bytes 4-11.
std::string colliding_script(int value, std::uint64_t budget,
                             std::uint64_t target) {
  const std::string tail = "';v=v+0;";
  for (char pad = 'a';; ++pad) {
    std::string source = "var v = " + std::to_string(value) + "; var s = '";
    source.resize(24, pad);
    std::uint64_t hash = chain_fold(chain_fold(0, budget), 40);
    for (std::size_t at = 0; at < 24; at += 8) {
      hash = chain_fold(hash, word_at(source, at));
    }
    const std::uint64_t word =
        chain_unfold(hash, chain_unfold(word_at(tail, 0), target));
    std::string solved(8, '\0');
    std::memcpy(solved.data(), &word, 8);
    if (solved.find_first_of("'\\") == std::string::npos) {
      return source + solved + tail;
    }
  }
}

/// The memo's chain hash after `source` runs as a page's first script.
std::uint64_t memo_chain_hash(const std::string& source) {
  test::LoggingHost host(1);
  Interpreter interpreter(host, kDefaultBudget);
  interpreter.run(source);
  return interpreter.chain_hash();
}

TEST(ScriptMemo, CollidingChainHashesNeverAlias) {
  const std::string first = "var v = 1; var s = 'aaaaaaaaaaaa';v=v+0;";
  ASSERT_EQ(first.size(), 40u);
  const std::uint64_t target = first_chain_hash(kDefaultBudget, first);
  const std::string second = colliding_script(2, kDefaultBudget, target);
  ASSERT_NE(first, second);

  // Precondition: both sources are their own keys and the memo gives them
  // one chain hash, the one the helpers computed.
  ASSERT_EQ(layout_free_text(first), first);
  ASSERT_EQ(layout_free_text(second), second);
  ASSERT_EQ(memo_chain_hash(first), target)
      << "the helpers no longer mirror the memo's chain hash";
  ASSERT_EQ(memo_chain_hash(second), target);

  // Same bucket, different key; then the same key under a parent of the
  // same bucket but a different id.  The child's host calls tell the
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
  // Corpus chains through one memo, no resets, with seeds added until
  // their stored outcomes exceed the byte cap: outcomes (and parents of
  // stored children) are evicted and re-admitted under fresh ids while
  // the results hold.
  constexpr std::uint64_t kCap = std::uint64_t{1} << 20;
  std::vector<std::vector<std::string>> chains;
  std::vector<std::uint64_t> seeds;
  std::vector<ChainRecord> cold;
  std::uint64_t stored = 0;
  for (std::uint64_t seed = 1; stored <= kCap && seed <= 64; ++seed) {
    for (const corpus::PageSpec& spec : table3_pages()) {
      chains.push_back(page_scripts(spec, seed));
      seeds.push_back(seed);
      reset_script_memo();
      cold.push_back(run_chain(chains.back(), kDefaultBudget, seed));
      stored += script_memo_stats().bytes;
    }
  }
  ASSERT_GT(stored, kCap);
  reset_script_memo();
  for (std::size_t i = 0; i < chains.size(); ++i) {
    for (int sighting = 0; sighting < 2; ++sighting) {
      EXPECT_TRUE(run_chain(chains[i], kDefaultBudget, seeds[i]) == cold[i])
          << i;
    }
  }
  for (std::size_t i = 0; i < chains.size(); ++i) {
    EXPECT_TRUE(run_chain(chains[i], kDefaultBudget, seeds[i]) == cold[i])
        << i;
  }
  const ScriptMemoStats stats = script_memo_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evicted, 0u);
  EXPECT_LE(stats.bytes, kCap);
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
