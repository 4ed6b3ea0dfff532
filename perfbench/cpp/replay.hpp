// Layer-by-layer replay of one page load.
//
// Scenario::run_single runs the whole stack in one call, so the benchmark
// cannot time the layers inside it without changing the program.  Instead
// the traced run replays, from the benchmark's own code, the public calls
// the browser pipeline makes for the same (spec, seed, pipeline): page
// generation, HTML parse, CSS scan/parse per sheet, MiniScript parse and
// run per script in document order, document.write fragment parses, and
// the final layout.  Each call is wrapped in a span; what run_single spends
// beyond the replayed spans is the event engine, RRC, HTTP/link and
// pipeline glue (core.stack_ms).
#pragma once

#include <cstdint>
#include <string>

#include "browser/pipeline.hpp"
#include "corpus/page_spec.hpp"
#include "spans.hpp"

namespace perfbench {

struct ReplayResult {
  std::uint64_t js_ops = 0;       // sum of RunResult.ops over the scripts
  std::uint64_t total_bytes = 0;  // every hosted resource (run_bulk input)
  std::string dom_signature;      // final DOM after document.write
};

/// Span names the replay records under its "replay" span; the ones below
/// are work run_single also does, the rest (web.js.parse) re-measures a part
/// of web.js.run on its own.
inline constexpr const char* kWebCorpusBrowserSpans[] = {
    "corpus.generate", "web.html.parse", "web.css.scan",
    "web.css.parse",   "web.js.run",     "browser.layout"};
inline constexpr const char* kWebCorpusSpans[] = {
    "corpus.generate", "web.html.parse", "web.css.scan", "web.css.parse",
    "web.js.run"};

ReplayResult replay_load(const eab::corpus::PageSpec& spec, std::uint64_t seed,
                         const eab::browser::PipelineConfig& pipeline,
                         SpanRecorder& spans);

}  // namespace perfbench
