// One sweep call per execution engine.
//
// A sweep computes shard(i) for every i in [0, count) and hands each result
// to consume(i, result) exactly once, in ascending index order
// (merge-on-arrival: shard k is handed over as soon as it and every shard
// below it finished, then released, so aggregation is streaming and
// constant-memory).  The consumed sequence — indices, order and payload
// bits — is the same on both engines and for any worker count, which is
// what lets check.sh byte-compare in-process and supervised bench
// artifacts:
//
//   core::sweep(runner, n, shard, consume);                  // threads
//   core::sweep(supervisor, n, shard, consume, encode, decode);  // processes
//
// A BatchRunner with one thread runs the shards inline on the calling
// thread: that is the reference ordering.  The supervised overload crosses
// process boundaries, so its codec is part of the signature: encode(result)
// runs in the worker and must return the bytes decode(bytes) turns back
// into a bit-identical result in the orchestrator.
//
// The shard function must be a pure function of its index (no shared
// mutable state), exactly as BatchRunner and Supervisor already require.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string_view>
#include <type_traits>
#include <utility>

#include "core/batch.hpp"
#include "core/supervisor.hpp"

namespace eab::core {

/// In-process sweep over `runner`'s threads.  Rethrows the lowest-index
/// shard failure (as BatchRunner::run_indexed does) after every shard ran;
/// consume never sees an index at or past a failed one.
template <typename Shard, typename Consume>
void sweep(BatchRunner& runner, std::size_t count, Shard&& shard,
           Consume&& consume) {
  using Result = std::decay_t<std::invoke_result_t<Shard&, std::size_t>>;
  // Workers complete in pool order; consume still runs strictly in index
  // order by buffering each completed result until the contiguous prefix
  // reaches it.  Memory is bounded by the reorder window (at most one
  // result per in-flight worker beyond the prefix), not the axis length.
  std::mutex mutex;
  std::map<std::size_t, Result> buffered;
  std::size_t next = 0;
  runner.run_indexed(count, [&](std::size_t i) {
    Result result = shard(i);
    std::lock_guard<std::mutex> lock(mutex);
    buffered.emplace(i, std::move(result));
    while (!buffered.empty() && buffered.begin()->first == next) {
      auto node = buffered.extract(buffered.begin());
      consume(next, std::move(node.mapped()));
      ++next;
    }
  });
}

/// Supervised sweep: one forked worker per shard under `supervisor`
/// (heartbeats, retries, durable checkpoints).  Never throws for a shard
/// failure: a shard or encode that throws in the worker surfaces as a
/// deterministic ShardError in the returned report, and consume skips that
/// index.  A decode or consume that throws propagates out of the call.
template <typename Shard, typename Consume, typename Encode, typename Decode>
SupervisorReport sweep(Supervisor& supervisor, std::size_t count,
                       Shard&& shard, Consume&& consume, Encode&& encode,
                       Decode&& decode) {
  return supervisor.run(
      count, [&](std::size_t i) { return encode(shard(i)); },  // worker
      [&](std::size_t i, std::string_view payload) {  // orchestrator
        consume(i, decode(payload));
      });
}

}  // namespace eab::core
